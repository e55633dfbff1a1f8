package freq

import (
	"fmt"
	"math"
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
// sorted by frequency. It panics on an empty table, duplicate frequencies,
// a voltage that is not positive and finite, or a voltage that falls as
// frequency rises: OPP tables are static platform configuration and such
// inputs are bugs.
func NewOPPTable(points []OPP) *OPPTable {
	if len(points) == 0 {
		panic("freq: empty OPP table")
	}
	cp := make([]OPP, len(points))
	copy(cp, points)
	sort.Slice(cp, func(i, j int) bool { return cp[i].F < cp[j].F })
	for i, p := range cp {
		if !(p.V > 0) || math.IsInf(float64(p.V), 1) {
			panic(fmt.Sprintf("freq: OPP voltage %v at %v is not positive and finite", p.V, p.F))
		}
		if i == 0 {
			continue
		}
		if prev := cp[i-1]; p.F == prev.F {
			panic(fmt.Sprintf("freq: duplicate OPP frequency %v", p.F))
		} else if p.V < prev.V {
			panic(fmt.Sprintf("freq: OPP voltage falls from %v at %v to %v at %v", prev.V, prev.F, p.V, p.F))
		}
	}
	return &OPPTable{points: cp}
}

// LinearOPPTable builds an OPP table over the given frequency ladder with a
// voltage that scales linearly from vMin at the lowest frequency to vMax at
// the highest. This matches the paper's CPU domain, where voltage tracks
// frequency up to 1.25 V at 1000 MHz. It panics unless 0 < vMin <= vMax,
// both finite.
func LinearOPPTable(ladder []MHz, vMin, vMax Volts) *OPPTable {
	if len(ladder) == 0 {
		panic("freq: empty frequency ladder")
	}
	if !(vMin <= vMax) || math.IsInf(float64(vMax), 1) {
		panic(fmt.Sprintf("freq: OPP voltage range [%v, %v] is not ordered and finite", vMin, vMax))
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

// Len returns the number of operating points.
func (t *OPPTable) Len() int { return len(t.points) }

// At returns the i-th operating point in ascending frequency order.
func (t *OPPTable) At(i int) OPP { return t.points[i] }

// Min returns the lowest operating point.
func (t *OPPTable) Min() OPP { return t.points[0] }

// Max returns the highest operating point.
func (t *OPPTable) Max() OPP { return t.points[len(t.points)-1] }

// VoltageAt returns the supply voltage for frequency f. Frequencies between
// table points are interpolated linearly; frequencies outside the table
// range return an error, since running outside the OPP range is invalid.
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
	frac := float64((f - lo.F) / (hi.F - lo.F))
	return lo.V + Volts(frac*float64(hi.V-lo.V)), nil
}

// searchOPP returns the least index i with pts[i].F >= f, or len(pts) if
// every point is below f — sort.Search's contract, open-coded so the
// voltage lookup on the per-setting CoeffsAt path makes no predicate call
// per probe.
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
