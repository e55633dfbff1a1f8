package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"time"

	"mcdvfs/internal/serve"
)

// Kind is a request type of the serving mixes.
type Kind uint8

const (
	KGrid Kind = iota
	KOptimal
	KStability
	KEmin
	KBenchmarks
	numKinds
)

var kindNames = [numKinds]string{"grid", "optimal", "stability", "emin", "benchmarks"}

func (k Kind) String() string { return kindNames[k] }

// Mix weights the request kinds, indexed by Kind.
type Mix [numKinds]int

// loadgenMix is the serve package's DefaultLoadMix: grid 10, optimal 70,
// stability 10, emin 5, benchmarks 5.
func loadgenMix() Mix {
	m := serve.DefaultLoadMix()
	return Mix{m.Grid, m.Optimal, m.Stability, m.Emin, m.Benchmarks}
}

// Req is one scheduled request. The schedule is generated before timing
// starts; the daemon only ever sees the request bodies built from it.
type Req struct {
	Due     time.Duration // offset from the phase start
	Kind    Kind
	Bench   string
	Budget  float64
	Current int // stability request variant
	Target  int // node index
}

// Key identifies the request's body, and so its expected response.
func (r Req) Key() string {
	switch r.Kind {
	case KGrid:
		return "grid|" + r.Bench
	case KOptimal:
		return fmt.Sprintf("optimal|%s|%x", r.Bench, math.Float64bits(r.Budget))
	case KStability:
		return fmt.Sprintf("stability|%d", r.Current)
	default:
		return r.Kind.String()
	}
}

// Keyed reports whether the request is routed by benchmark key.
func (r Req) Keyed() bool { return r.Kind == KGrid || r.Kind == KOptimal }

// httpRequest returns the method, path and body the generator sends; the
// bodies are the serve package's request types, as mcdvfsload sends them.
func (r Req) httpRequest() (method, path string, body []byte) {
	var v any
	switch r.Kind {
	case KGrid:
		path, v = "/v1/grid", serve.GridRequest{Benchmark: r.Bench, Space: "coarse"}
	case KOptimal:
		path, v = "/v1/optimal", serve.OptimalRequest{Benchmark: r.Bench, Space: "coarse", Budget: r.Budget}
	case KStability:
		path, v = "/v1/stability", serve.StabilityRequest{History: []int{4, 6, 5}, Current: r.Current}
	case KEmin:
		path, v = "/v1/emin", serve.EminRequest{Predictor: "ewma", Alpha: 0.3, Observations: []float64{1.1, 1.05, 1.2}}
	default:
		return http.MethodGet, "/v1/benchmarks", nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // fixed request types always marshal
	}
	return http.MethodPost, path, b
}

// ScheduleSpec parameterizes one open-loop phase.
type ScheduleSpec struct {
	Rate    float64   `json:"rate_rps"`
	Count   int       `json:"requests"`
	Mix     Mix       `json:"mix"`
	Pool    []string  `json:"benchmarks"`
	ZipfS   float64   `json:"zipf_s"` // > 1: zipf over Pool in order; 0: uniform
	Budgets []float64 `json:"budgets"`
	Targets int       `json:"targets"`
}

// generate draws the schedule: Poisson arrivals at Rate, request kinds in
// shuffled blocks that hold the mix's exact proportions (so every phase of
// a given length carries the same number of each kind), benchmarks from the
// zipf or uniform pool, budgets uniform over Budgets, and targets
// round-robin. The same spec and seed always give the same schedule.
func generate(spec ScheduleSpec, seed int64) []Req {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if spec.ZipfS > 1 && len(spec.Pool) > 1 {
		zipf = rand.NewZipf(rng, spec.ZipfS, 1, uint64(len(spec.Pool)-1))
	}
	block := mixBlock(spec.Mix)
	reqs := make([]Req, spec.Count)
	t := 0.0
	for i := range reqs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		t += rng.ExpFloat64() / spec.Rate
		r := Req{Due: time.Duration(t * 1e9), Kind: block[i%len(block)], Target: i % max(spec.Targets, 1)}
		if r.Keyed() {
			if zipf != nil {
				r.Bench = spec.Pool[zipf.Uint64()]
			} else {
				r.Bench = spec.Pool[rng.Intn(len(spec.Pool))]
			}
		}
		if r.Kind == KOptimal {
			r.Budget = spec.Budgets[rng.Intn(len(spec.Budgets))]
		}
		if r.Kind == KStability {
			r.Current = rng.Intn(4)
		}
		reqs[i] = r
	}
	return reqs
}

// mixBlock expands a mix, reduced by the weights' gcd, into one block of
// kinds in which each kind appears in proportion to its weight.
func mixBlock(m Mix) []Kind {
	g := 0
	for _, w := range m {
		g = gcd(g, w)
	}
	var block []Kind
	for k, w := range m {
		for i := 0; i < w/max(g, 1); i++ {
			block = append(block, Kind(k))
		}
	}
	return block
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// scheduleDigest fingerprints a schedule: identical seeds must print
// identical digests.
func scheduleDigest(reqs []Req) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(buf[:], uint64(r.Due))
		h.Write(buf[:])
		h.Write([]byte{byte(r.Kind), byte(r.Target), byte(r.Current)})
		h.Write([]byte(r.Bench))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r.Budget))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// budgetRange returns lo, lo+step, …, hi, built from integer hundredths so
// every budget is the exact float64 of its two-decimal spelling.
func budgetRange(loCents, hiCents int) []float64 {
	var out []float64
	for c := loCents; c <= hiCents; c++ {
		out = append(out, float64(c)/100)
	}
	return out
}
