package main

// Output oracles. Characterize grids are checked against digests pinned in
// golden.json; serving responses are checked against bodies computed from
// the library during preparation, by length and CRC-32C so the check costs
// the generator almost nothing while the daemon runs.

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"

	"mcdvfs/internal/core"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/predict"
	"mcdvfs/internal/serve"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// fig10Budgets are the inefficiency budgets of the paper's Figure 10.
var fig10Budgets = []float64{1.0, 1.1, 1.2, 1.3, 1.6}

// regionThreshold is the stable-region cluster threshold (5%).
const regionThreshold = 0.05

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fold64 mixes words into a 64-bit FNV-1a-style digest, one multiply per
// word; cheap enough to digest every cell of every pass.
type fold64 uint64

const foldPrime = 1099511628211

func newFold() fold64 { return 14695981039346656037 }

func (h *fold64) word(w uint64) { *h = (*h ^ fold64(w)) * foldPrime }

func (h *fold64) float(f float64) { h.word(math.Float64bits(f)) }

func (h fold64) hex() string { return fmt.Sprintf("%016x", uint64(h)) }

// digestGrid folds the bits of every field of every cell.
func digestGrid(g *trace.Grid) string {
	h := newFold()
	h.word(uint64(len(g.Data)))
	h.word(uint64(len(g.Settings)))
	for _, row := range g.Data {
		for _, m := range row {
			h.float(m.TimeNS)
			h.float(m.CPUEnergyJ)
			h.float(m.MemEnergyJ)
			h.float(m.CPI)
			h.float(m.MPKI)
		}
	}
	return h.hex()
}

func digestSchedule(s core.Schedule) string {
	h := newFold()
	for _, id := range s {
		h.word(uint64(id))
	}
	return h.hex()
}

func digestRegions(rs []core.Region) string {
	h := newFold()
	for _, r := range rs {
		h.word(uint64(r.Start))
		h.word(uint64(r.End))
		h.word(uint64(r.Choice))
		for _, id := range r.Avail {
			h.word(uint64(id))
		}
	}
	return h.hex()
}

// goldenEntry pins one (benchmark, space) characterization.
type goldenEntry struct {
	Cells     string   `json:"cells"`
	Schedules []string `json:"schedules"` // one per fig10Budgets entry
	Regions   []string `json:"regions"`   // one per fig10Budgets entry
}

//go:embed golden.json
var goldenJSON []byte

// loadGolden parses the pinned digests, keyed "benchmark|space".
func loadGolden() (map[string]goldenEntry, error) {
	var g map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// writeGolden characterizes the whole registry and writes golden.json.
// Run it only when the model's output is meant to change.
func writeGolden(path string) error {
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return err
	}
	out := make(map[string]goldenEntry)
	for _, name := range workload.Names() {
		for _, sp := range registrySpaces() {
			g, err := trace.CollectContext(context.Background(), sys, workload.MustByName(name), sp.space, trace.CollectOptions{})
			if err != nil {
				return err
			}
			a, err := core.NewAnalysis(g)
			if err != nil {
				return err
			}
			e := goldenEntry{Cells: digestGrid(g)}
			for _, b := range fig10Budgets {
				sch, err := a.OptimalSchedule(b)
				if err != nil {
					return err
				}
				rs, err := a.StableRegions(b, regionThreshold)
				if err != nil {
					return err
				}
				e.Schedules = append(e.Schedules, digestSchedule(sch))
				e.Regions = append(e.Regions, digestRegions(rs))
			}
			out[name+"|"+sp.name] = e
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

type namedSpace struct {
	name  string
	space *freq.Space
}

func registrySpaces() []namedSpace {
	return []namedSpace{{"coarse", freq.CoarseSpace()}, {"fine", freq.FineSpace()}}
}

// expect is a response body's length and CRC-32C.
type expect struct {
	n   int
	crc uint32
}

func expectOf(body []byte) expect {
	return expect{n: len(body), crc: crc32.Checksum(body, castagnoli)}
}

// encodeJSON encodes v exactly as the daemon writes a response body.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err) // response types always encode
	}
	return buf.Bytes()
}

// oracle holds the expected 200 body of every request key a workload can
// send, computed from the library: grids by collecting them directly (and
// checking them against the pinned digests), analyses by core, and the
// predictor and registry endpoints from their packages.
type oracle struct {
	bodies map[string]expect
	grids  map[string]*trace.Grid // coarse grids by benchmark
}

func newOracle(reqs []Req, golden map[string]goldenEntry) (*oracle, error) {
	sys, err := sim.New(sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	o := &oracle{bodies: make(map[string]expect), grids: make(map[string]*trace.Grid)}
	analyses := make(map[string]*core.Analysis)
	analysis := func(bench string) (*core.Analysis, error) {
		if a, ok := analyses[bench]; ok {
			return a, nil
		}
		g, err := trace.CollectContext(context.Background(), sys, workload.MustByName(bench), freq.CoarseSpace(), trace.CollectOptions{})
		if err != nil {
			return nil, err
		}
		if d := digestGrid(g); d != golden[bench+"|coarse"].Cells {
			return nil, fmt.Errorf("oracle: %s coarse grid digest %s does not match the pinned one", bench, d)
		}
		a, err := core.NewAnalysis(g)
		if err != nil {
			return nil, err
		}
		analyses[bench], o.grids[bench] = a, g
		return a, nil
	}
	for _, r := range reqs {
		key := r.Key()
		if _, ok := o.bodies[key]; ok {
			continue
		}
		var v any
		switch r.Kind {
		case KGrid:
			a, err := analysis(r.Bench)
			if err != nil {
				return nil, err
			}
			v = a.Grid()
		case KOptimal:
			a, err := analysis(r.Bench)
			if err != nil {
				return nil, err
			}
			if v, err = optimalResponse(a, r.Bench, r.Budget); err != nil {
				return nil, err
			}
		case KStability:
			p, err := predict.NewStabilityPredictor(16)
			if err != nil {
				return nil, err
			}
			hist := []int{4, 6, 5}
			for _, l := range hist {
				for i := 0; i < l; i++ {
					p.ObserveStable()
				}
				p.ObserveBreak()
			}
			for i := 0; i < r.Current; i++ {
				p.ObserveStable()
			}
			v = serve.StabilityResponse{PredictedRemaining: p.PredictRemaining(), HistoryLen: len(hist), Current: p.Current()}
		case KEmin:
			p, err := predict.NewEWMA(0.3)
			if err != nil {
				return nil, err
			}
			for _, x := range []float64{1.1, 1.05, 1.2} {
				p.Observe(x)
			}
			e, known := p.Predict()
			v = serve.EminResponse{Predictor: p.Name(), PredictedEminJ: e, Known: known}
		case KBenchmarks:
			headline := make(map[string]bool)
			for _, n := range workload.HeadlineNames() {
				headline[n] = true
			}
			var out []serve.BenchmarkJSON
			for _, name := range workload.Names() {
				b := workload.MustByName(name)
				out = append(out, serve.BenchmarkJSON{Name: name, Headline: headline[name], Samples: b.NumSamples(), Instructions: b.Instructions()})
			}
			v = map[string]any{"benchmarks": out}
		}
		o.bodies[key] = expectOf(encodeJSON(v))
	}
	return o, nil
}

// optimalResponse builds the /v1/optimal answer for a coarse-space query.
func optimalResponse(a *core.Analysis, bench string, budget float64) (*serve.OptimalResponse, error) {
	sch, err := a.OptimalSchedule(budget)
	if err != nil {
		return nil, err
	}
	resp := &serve.OptimalResponse{
		Benchmark:                  bench,
		Space:                      "coarse",
		Budget:                     budget,
		NumSamples:                 a.NumSamples(),
		Transitions:                sch.Transitions(),
		TransitionsPerBillionInstr: a.TransitionsPerBillion(sch.Transitions()),
		Schedule:                   make([]int, len(sch)),
	}
	used := make(map[int]bool)
	for i, id := range sch {
		resp.Schedule[i] = int(id)
		used[int(id)] = true
	}
	ids := make([]int, 0, len(used))
	for id := range used {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st := a.Grid().Setting(freq.SettingID(id))
		resp.Settings = append(resp.Settings, serve.OptimalSettingJSON{ID: id, CPUMHz: float64(st.CPU), MemMHz: float64(st.Mem)})
	}
	return resp, nil
}
