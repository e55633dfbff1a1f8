package freq

import (
	"fmt"
	"sort"
)

// OPP is an operating performance point: a clock frequency paired with the
// minimum stable supply voltage at that frequency.
type OPP struct {
	F MHz
	V Volts
}

// OPPTable is an ordered list of operating points for one clock domain,
// sorted by ascending frequency.
type OPPTable struct {
	points []OPP
}

// NewOPPTable builds a table from the given points. Points are copied and
// sorted by frequency. It panics on an empty table or duplicate frequencies:
// OPP tables are static platform configuration and such inputs are bugs.
func NewOPPTable(points []OPP) *OPPTable {
	if len(points) == 0 {
		panic("freq: empty OPP table")
	}
	cp := make([]OPP, len(points))
	copy(cp, points)
	sort.Slice(cp, func(i, j int) bool { return cp[i].F < cp[j].F })
	for i := 1; i < len(cp); i++ {
		if cp[i].F == cp[i-1].F {
			panic(fmt.Sprintf("freq: duplicate OPP frequency %v", cp[i].F))
		}
	}
	return &OPPTable{points: cp}
}

// LinearOPPTable builds an OPP table over the given frequency ladder with a
// voltage that scales linearly from vMin at the lowest frequency to vMax at
// the highest. This matches the paper's CPU domain, where voltage tracks
// frequency up to 1.25 V at 1000 MHz.
//
//vet:requires vMin > 0 && vMax >= vMin
func LinearOPPTable(ladder []MHz, vMin, vMax Volts) *OPPTable {
	if len(ladder) == 0 {
		panic("freq: empty frequency ladder")
	}
	lo, hi := ladder[0], ladder[len(ladder)-1]
	span := hi - lo
	pts := make([]OPP, 0, len(ladder))
	for _, f := range ladder {
		v := vMin
		if span > 0 {
			v = vMin + Volts(float64(vMax-vMin)*float64((f-lo)/span))
		}
		pts = append(pts, OPP{F: f, V: v})
	}
	return NewOPPTable(pts)
}

// FixedVoltageTable builds an OPP table whose voltage is the same at every
// frequency. This matches the paper's memory domain: LPDDR3 VDD rails are
// fixed and only the clock scales.
//
//vet:requires v > 0
func FixedVoltageTable(ladder []MHz, v Volts) *OPPTable {
	pts := make([]OPP, 0, len(ladder))
	for _, f := range ladder {
		pts = append(pts, OPP{F: f, V: v})
	}
	return NewOPPTable(pts)
}

// Len returns the number of operating points.
func (t *OPPTable) Len() int { return len(t.points) }

// At returns the i-th operating point in ascending frequency order.
func (t *OPPTable) At(i int) OPP { return t.points[i] }

// Frequencies returns the table's frequency ladder in ascending order.
func (t *OPPTable) Frequencies() []MHz {
	out := make([]MHz, len(t.points))
	for i, p := range t.points {
		out[i] = p.F
	}
	return out
}

// Min returns the lowest operating point.
func (t *OPPTable) Min() OPP { return t.points[0] }

// Max returns the highest operating point.
func (t *OPPTable) Max() OPP { return t.points[len(t.points)-1] }

// VoltageAt returns the supply voltage for frequency f. Frequencies between
// table points are interpolated linearly; frequencies outside the table
// range return an error, since running outside the OPP range is invalid.
//
//vet:requires f > 0
func (t *OPPTable) VoltageAt(f MHz) (Volts, error) {
	pts := t.points
	if f < pts[0].F || f > pts[len(pts)-1].F {
		return 0, fmt.Errorf("freq: %v outside OPP range [%v, %v]", f, pts[0].F, pts[len(pts)-1].F)
	}
	i := searchOPP(pts, f)
	if pts[i].F == f {
		return pts[i].V, nil
	}
	lo, hi := pts[i-1], pts[i]
	frac := float64((f - lo.F) / (hi.F - lo.F)) //lint:allow rangecheck adjacent OPPs are strictly increasing (NewOPPTable panics on duplicates), so the span is positive
	return lo.V + Volts(frac*float64(hi.V-lo.V)), nil
}

// searchOPP returns the least index i with pts[i].F >= f, or len(pts) if
// every point is below f — sort.Search's contract, open-coded because the
// voltage lookup sits on the hot CoeffsAt path and the stdlib form hands a
// capturing predicate closure to an extern call the allocation prover
// cannot see through.
func searchOPP(pts []OPP, f MHz) int {
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].F < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Nearest returns the operating point whose frequency is closest to f,
// preferring the lower point on ties.
func (t *OPPTable) Nearest(f MHz) OPP {
	pts := t.points
	i := searchOPP(pts, f)
	if i == 0 {
		return pts[0]
	}
	if i == len(pts) {
		return pts[len(pts)-1]
	}
	if pts[i].F-f < f-pts[i-1].F {
		return pts[i]
	}
	return pts[i-1]
}
