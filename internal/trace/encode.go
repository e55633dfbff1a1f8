package trace

// The grid's JSON encoder. A grid body is most of what the daemon sends,
// and encoding/json spends a quarter of its time on a grid in reflection
// and buffer growth; AppendJSON writes the same bytes with neither, and
// formats its floats with the shortest-digits kernel in shortest.go.
// encoding/json stays the oracle: encode_test.go requires byte identity
// with json.NewEncoder(w).Encode(g) on every built-in grid and on fuzzed
// ones, and pins the fields and tags this encoder spells out.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"mcdvfs/internal/freq"
)

// The text between a grid's values, in the struct's field order and with
// its tags, as encoding/json writes them.
const (
	jsonBenchmark = `{"benchmark":`
	jsonInstr     = `,"sample_instructions":`
	jsonSettings  = `,"settings":`
	jsonCPU       = `{"CPU":`
	jsonMem       = `,"Mem":`
	jsonData      = `,"data":`
	jsonTime      = `{"time_ns":`
	jsonCPUEnergy = `,"cpu_energy_j":`
	jsonMemEnergy = `,"mem_energy_j":`
	jsonCPI       = `,"cpi":`
	jsonMPKI      = `,"mpki":`
	jsonFailures  = `,"convergence_failures":`
)

// Size bounds for jsonBound. maxFloatLen is the longest text appendFloat
// writes, -0.0000012345678901234567: a sign, 17 significant digits and
// the five zeros just above the 1e-6 switch to exponent form. The kernel's
// word stores stay within it too, so the bound leaves them room. Each
// element's bound counts a separating comma, and each array's the four
// bytes of null, which also cover its brackets.
const (
	maxFloatLen = 25
	maxUintLen  = 20
	settingLen  = len(jsonCPU) + len(jsonMem) + 2*maxFloatLen + len("},")
	cellLen     = len(jsonTime) + len(jsonCPUEnergy) + len(jsonMemEnergy) + len(jsonCPI) + len(jsonMPKI) + 5*maxFloatLen + len("},")
)

// jsonBound is an upper bound on the bytes AppendJSON writes for g, whose
// benchmark name encodes to nameLen bytes. It reads only the grid's
// dimensions, so it is the tightest bound that needs no pass over the
// values: the built-in grids' floats average 18.6 bytes against
// maxFloatLen, and their bodies come to about 83% of the bound (2.15 of
// 2.59 MB for bzip2's coarse grid).
func (g *Grid) jsonBound(nameLen int) int {
	n := len(jsonBenchmark) + nameLen + len(jsonInstr) + maxUintLen +
		len(jsonSettings) + len("null") + len(g.Settings)*settingLen +
		len(jsonData) + len("null") +
		len(jsonFailures) + maxUintLen + len("}\n")
	for _, row := range g.Data {
		n += len("null,") + len(row)*cellLen
	}
	return n
}

// AppendJSON appends the grid's JSON encoding to dst and returns the
// extended buffer. The bytes are exactly those json.NewEncoder(w).Encode(g)
// writes, trailing newline included: fields in struct order under their
// tags, settings as {"CPU":…,"Mem":…}, convergence_failures omitted when
// zero, nil slices as null, and floats in encoding/json's form (see
// appendFloat). The benchmark name goes through json.Marshal, so its
// escaping matches too. dst grows once, to jsonBound, before the first
// byte is written.
//
// AppendJSON uses dst's spare capacity, jsonBound bytes past len(dst), as
// its workspace, so what the caller kept there does not survive the call:
// the float kernel's word stores reach up to maxFloatLen bytes past the
// end of the returned slice.
//
// Like encoding/json, AppendJSON rejects NaN and ±Inf, which JSON cannot
// represent: it returns an error naming the first such cell or setting and
// appends nothing (the result has dst's length, and the bytes past it
// hold what was written before the failure).
//
// sim fills every cell of a sample with the sample's MPKI, so consecutive
// cells usually repeat it; an MPKI with the bits of the previous one
// copies that one's digits instead of formatting them again.
func (g *Grid) AppendJSON(dst []byte) ([]byte, error) {
	name, err := json.Marshal(g.Benchmark)
	if err != nil {
		return dst, fmt.Errorf("trace: encoding grid name: %w", err)
	}
	start := len(dst)
	dst = slices.Grow(dst, g.jsonBound(len(name)))
	dst = append(dst, jsonBenchmark...)
	dst = append(dst, name...)
	dst = append(dst, jsonInstr...)
	dst = strconv.AppendUint(dst, g.SampleInstr, 10)
	dst = append(dst, jsonSettings...)
	if dst, err = appendSettings(dst, g.Settings); err == nil {
		dst = append(dst, jsonData...)
		dst, err = appendData(dst, g.Data)
	}
	if err != nil {
		return dst[:start], fmt.Errorf("trace: encoding grid %q: %w", g.Benchmark, err)
	}
	if g.ConvergenceFailures != 0 {
		dst = append(dst, jsonFailures...)
		dst = strconv.AppendUint(dst, g.ConvergenceFailures, 10)
	}
	return append(dst, "}\n"...), nil
}

// appendSettings appends the settings array of AppendJSON's encoding.
func appendSettings(dst []byte, settings []freq.Setting) ([]byte, error) {
	if settings == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for k, st := range settings {
		if !finite(float64(st.CPU)) || !finite(float64(st.Mem)) {
			return dst, fmt.Errorf("setting %d is not finite: {CPU:%v Mem:%v}", k, float64(st.CPU), float64(st.Mem))
		}
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, jsonCPU...)
		dst = appendFloat(dst, float64(st.CPU))
		dst = append(dst, jsonMem...)
		dst = appendFloat(dst, float64(st.Mem))
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// appendData appends the data array of AppendJSON's encoding, copying the
// previous MPKI's digits where the bits repeat.
func appendData(dst []byte, data [][]Measurement) ([]byte, error) {
	if data == nil {
		return append(dst, "null"...), nil
	}
	// dst[mpkiAt:mpkiEnd] holds the digits of the last MPKI formatted,
	// whose bits are mpkiBits; the span is empty until the first.
	var mpkiBits uint64
	mpkiAt, mpkiEnd := 0, 0
	dst = append(dst, '[')
	for s, row := range data {
		if s > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for k := range row {
			m := &row[k]
			if !finite(m.TimeNS) || !finite(m.CPUEnergyJ) || !finite(m.MemEnergyJ) || !finite(m.CPI) || !finite(m.MPKI) {
				return dst, fmt.Errorf("sample %d setting %d is not finite: %+v", s, k, *m)
			}
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, jsonTime...)
			dst = appendFloat(dst, m.TimeNS)
			dst = append(dst, jsonCPUEnergy...)
			dst = appendFloat(dst, m.CPUEnergyJ)
			dst = append(dst, jsonMemEnergy...)
			dst = appendFloat(dst, m.MemEnergyJ)
			dst = append(dst, jsonCPI...)
			dst = appendFloat(dst, m.CPI)
			dst = append(dst, jsonMPKI...)
			if bits := math.Float64bits(m.MPKI); mpkiEnd > mpkiAt && bits == mpkiBits {
				dst = append(dst, dst[mpkiAt:mpkiEnd]...)
			} else {
				mpkiAt = len(dst)
				dst = appendFloat(dst, m.MPKI)
				mpkiEnd, mpkiBits = len(dst), bits
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

// finite reports whether JSON can represent f.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat appends a finite f as encoding/json writes a float64, which
// is ES6's number-to-string conversion: the shortest decimal that reads
// back as f, in positional form from 1e-6 up to 1e21 (and for ±0), in
// exponent form outside it, with a one-digit negative exponent's leading
// zero dropped (1.5e-7, not 1.5e-07). The positional range goes through
// appendShortest's kernel; zero and the exponent form through strconv.
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs >= 1e-6 && abs < 1e21 {
		return appendShortest(dst, f)
	}
	if abs == 0 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// WriteJSON writes the grid's JSON encoding, AppendJSON's bytes, to w in
// one Write. A grid holding NaN or ±Inf writes nothing and returns
// AppendJSON's error.
func (g *Grid) WriteJSON(w io.Writer) error {
	buf, err := g.AppendJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
