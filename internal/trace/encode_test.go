package trace

// The encoder's oracle is encoding/json: AppendJSON must write exactly the
// bytes json.NewEncoder(w).Encode(g) writes, on every built-in grid and on
// fuzzed ones, and must fail wherever encoding/json fails.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mcdvfs/internal/freq"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/workload"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// oracleJSON is encoding/json's encoding of g.
func oracleJSON(g *Grid) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(g)
	return buf.Bytes(), err
}

// requireOracleBytes checks AppendJSON, appending after a prefix, and
// WriteJSON against encoding/json on g: the same bytes within jsonBound,
// or an error from every side with nothing appended or written.
func requireOracleBytes(t *testing.T, g *Grid) {
	t.Helper()
	want, wantErr := oracleJSON(g)
	const prefix = "prefix"
	got, err := g.AppendJSON([]byte(prefix))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error %v, encoding/json error %v", err, wantErr)
	}
	var written bytes.Buffer
	if wErr := g.WriteJSON(&written); (wErr != nil) != (err != nil) {
		t.Fatalf("WriteJSON error %v, AppendJSON error %v", wErr, err)
	}
	if err != nil {
		if string(got) != prefix || written.Len() != 0 {
			t.Fatalf("failed AppendJSON left %q and WriteJSON wrote %d bytes, want the prefix alone and nothing", got, written.Len())
		}
		return
	}
	if string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendJSON wrote (%d bytes)\n%.2000s\nencoding/json wrote (%d bytes)\n%.2000s",
			len(got)-len(prefix), got[len(prefix):], len(want), want)
	}
	if !bytes.Equal(written.Bytes(), want) {
		t.Fatalf("WriteJSON differs from encoding/json (%d against %d bytes)", written.Len(), len(want))
	}
	name, err := json.Marshal(g.Benchmark)
	if err != nil {
		t.Fatal(err)
	}
	if bound := g.jsonBound(len(name)); len(want) > bound {
		t.Fatalf("body is %d bytes, over jsonBound's %d", len(want), bound)
	}
}

// TestAppendJSONMatchesEncodingJSON is the byte-identity contract on every
// built-in benchmark in both spaces, through AppendJSON and WriteJSON.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	if testing.Short() || raceEnabled {
		// One goroutine, so the race detector has nothing to find, and it
		// would stretch these 250 MB of encoding to about two minutes.
		t.Skip("encodes all 36 built-in grids three times")
	}
	sys := sim.MustNew(sim.DefaultConfig())
	for _, sp := range []struct {
		name  string
		space *freq.Space
	}{{"coarse", freq.CoarseSpace()}, {"fine", freq.FineSpace()}} {
		for _, name := range workload.Names() {
			t.Run(sp.name+"/"+name, func(t *testing.T) {
				g, err := CollectContext(context.Background(), sys, workload.MustByName(name), sp.space, CollectOptions{})
				if err != nil {
					t.Fatalf("Collect: %v", err)
				}
				requireOracleBytes(t, g)
			})
		}
	}
}

// fuzzGrid builds a grid from fuzzed inputs. The bits of shape are: 0–2
// the number of settings, 3–5 the number of samples, 6–13 which rows (one
// bit each) repeat one MPKI across the row, and, where the count is zero,
// 14 a nil settings slice, 15 nil data, 16 nil rows. Cell (s, k) takes
// field j from vals[(s+k+j)%5], so each field meets every value; a
// repeating row's MPKI is vals[s%5] in every cell, and settings take
// vals[k%5] and vals[(k+1)%5].
func fuzzGrid(name string, instr, failures uint64, shape uint32, vals [5]float64) *Grid {
	nSettings, nSamples := int(shape&7), int(shape>>3&7)
	v := func(i int) float64 { return vals[i%5] }
	g := &Grid{Benchmark: name, SampleInstr: instr, ConvergenceFailures: failures}
	if nSettings > 0 || shape&(1<<14) == 0 {
		g.Settings = make([]freq.Setting, nSettings)
	}
	for k := range g.Settings {
		g.Settings[k] = freq.Setting{CPU: freq.MHz(v(k)), Mem: freq.MHz(v(k + 1))}
	}
	if nSamples > 0 || shape&(1<<15) == 0 {
		g.Data = make([][]Measurement, nSamples)
	}
	for s := range g.Data {
		if nSettings == 0 && shape&(1<<16) != 0 {
			continue
		}
		row := make([]Measurement, nSettings)
		for k := range row {
			mpki := v(s + k + 4)
			if shape&(1<<(6+s)) != 0 {
				mpki = v(s)
			}
			row[k] = Measurement{TimeNS: v(s + k), CPUEnergyJ: v(s + k + 1), MemEnergyJ: v(s + k + 2), CPI: v(s + k + 3), MPKI: mpki}
		}
		g.Data[s] = row
	}
	return g
}

// FuzzGridJSON is the encoder's differential fuzz against encoding/json.
// The committed corpus (testdata/fuzz/FuzzGridJSON) holds names that
// encoding/json escapes (<, >, &, U+2028, control bytes, invalid UTF-8),
// subnormals, ±0, values on both sides of 1e-6 and 1e21, exponents that
// lose a leading zero (e-07 → e-7), NaN and ±Inf in cells and settings,
// rows that repeat their MPKI next to rows that do not, nil and empty
// slices, zero and non-zero convergence failures, and a grid of only the
// longest values, on which jsonBound has no slack but its separators.
func FuzzGridJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, instr, failures uint64, shape uint32, a, b, c, d, e float64) {
		requireOracleBytes(t, fuzzGrid(name, instr, failures, shape, [5]float64{a, b, c, d, e}))
	})
}

// TestGridJSONFieldsPinned fails when Grid, Measurement or freq.Setting
// gains, loses, renames or retypes a field or changes a tag. AppendJSON
// spells every field out, so such a change must reach the encoder (and
// this list) or the field would silently drop out of every grid body.
func TestGridJSONFieldsPinned(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(Grid{}), []string{
			`Benchmark string json:"benchmark"`,
			`SampleInstr uint64 json:"sample_instructions"`,
			`Settings []freq.Setting json:"settings"`,
			`Data [][]trace.Measurement json:"data"`,
			`ConvergenceFailures uint64 json:"convergence_failures,omitempty"`,
		}},
		{reflect.TypeOf(Measurement{}), []string{
			`TimeNS float64 json:"time_ns"`,
			`CPUEnergyJ float64 json:"cpu_energy_j"`,
			`MemEnergyJ float64 json:"mem_energy_j"`,
			`CPI float64 json:"cpi"`,
			`MPKI float64 json:"mpki"`,
		}},
		{reflect.TypeOf(freq.Setting{}), []string{
			`CPU freq.MHz `,
			`Mem freq.MHz `,
		}},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			got = append(got, fmt.Sprintf("%s %s %s", f.Name, f.Type, f.Tag))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%v fields changed; update AppendJSON and this list:\ngot  %q\nwant %q", c.typ, got, c.want)
		}
	}
}

// TestAppendJSONAllocationsIndependentOfSize requires that, into a buffer
// with room, AppendJSON allocates only to encode the name: the same count
// for a one-cell grid as for a 700-cell one. Into a nil buffer it may
// allocate once more, for the one growth to jsonBound.
func TestAppendJSONAllocationsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		// json.Marshal draws its state from a sync.Pool, which the race
		// detector makes drop items at random, so its count varies.
		t.Skip("allocation counts through sync.Pool vary under the race detector")
	}
	for _, g := range []*Grid{fuzzGrid("tiny", 1, 0, 1|1<<3, [5]float64{1, 2, 3, 4, 5}), collectSmall(t)} {
		buf, err := g.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		reused := testing.AllocsPerRun(20, func() { buf, _ = g.AppendJSON(buf[:0]) })
		fresh := testing.AllocsPerRun(20, func() { _, _ = g.AppendJSON(nil) })
		if reused > 2 || fresh > reused+1 {
			t.Errorf("%d cells: AppendJSON allocates %v times into a buffer with room and %v into nil; want at most 2 (the name) and one more", len(g.Data)*len(g.Settings), reused, fresh)
		}
	}
}

// BenchmarkAppendJSON measures the grid encoder on bzip2's grids, the
// largest built-in bodies (2.15 MB coarse, 15.23 MB fine), encoding into a
// reused buffer as the daemon's pooled one is. Bytes per second count the
// body.
func BenchmarkAppendJSON(b *testing.B) {
	sys := sim.MustNew(sim.DefaultConfig())
	for _, sp := range []struct {
		name  string
		space *freq.Space
	}{{"coarse", freq.CoarseSpace()}, {"fine", freq.FineSpace()}} {
		b.Run("bzip2/"+sp.name, func(b *testing.B) {
			g, err := CollectContext(context.Background(), sys, workload.MustByName("bzip2"), sp.space, CollectOptions{})
			if err != nil {
				b.Fatal(err)
			}
			buf, err := g.AppendJSON(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = g.AppendJSON(buf[:0])
			}
		})
	}
}
