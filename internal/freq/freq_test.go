package freq

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLadder(t *testing.T) {
	cases := []struct {
		lo, hi, step MHz
		want         []MHz
	}{
		{100, 1000, 100, []MHz{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}},
		{200, 800, 100, []MHz{200, 300, 400, 500, 600, 700, 800}},
		{100, 100, 50, []MHz{100}},
		{200, 800, 40, Ladder(200, 800, 40)},
	}
	for _, c := range cases {
		got := Ladder(c.lo, c.hi, c.step)
		if len(got) != len(c.want) {
			t.Fatalf("Ladder(%v,%v,%v) len = %d, want %d", c.lo, c.hi, c.step, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Ladder(%v,%v,%v)[%d] = %v, want %v", c.lo, c.hi, c.step, i, got[i], c.want[i])
			}
		}
	}
}

func TestLadderFineSizes(t *testing.T) {
	// Paper: 30 MHz CPU steps and 40 MHz memory steps give 496 settings.
	cpu := Ladder(100, 1000, 30)
	mem := Ladder(200, 800, 40)
	if len(cpu) != 31 {
		t.Errorf("fine CPU ladder len = %d, want 31", len(cpu))
	}
	if len(mem) != 16 {
		t.Errorf("fine mem ladder len = %d, want 16", len(mem))
	}
	if len(cpu)*len(mem) != 496 {
		t.Errorf("fine space size = %d, want 496", len(cpu)*len(mem))
	}
}

func TestLadderPanics(t *testing.T) {
	for _, c := range []struct{ lo, hi, step MHz }{
		{100, 50, 10},
		{100, 200, 0},
		{100, 200, -5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Ladder(%v,%v,%v) did not panic", c.lo, c.hi, c.step)
				}
			}()
			Ladder(c.lo, c.hi, c.step)
		}()
	}
}

func TestMHzConversions(t *testing.T) {
	f := MHz(500)
	if got := f.GHz(); got != 0.5 {
		t.Errorf("GHz = %v, want 0.5", got)
	}
	if got := f.PeriodNS(); got != 2 {
		t.Errorf("PeriodNS = %v, want 2", got)
	}
}

func TestMHzString(t *testing.T) {
	if got := MHz(800).String(); got != "800MHz" {
		t.Errorf("String = %q", got)
	}
	if got := MHz(333.5).String(); got != "333.5MHz" {
		t.Errorf("String = %q", got)
	}
}

func TestPeriodPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PeriodNS(0) did not panic")
		}
	}()
	MHz(0).PeriodNS()
}

func TestLinearOPPTable(t *testing.T) {
	tab := LinearOPPTable(Ladder(100, 1000, 100), 0.85, 1.25)
	if tab.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tab.Len())
	}
	if v := tab.Min().V; math.Abs(float64(v-0.85)) > 1e-12 {
		t.Errorf("min voltage = %v, want 0.85", v)
	}
	if v := tab.Max().V; math.Abs(float64(v-1.25)) > 1e-12 {
		t.Errorf("max voltage = %v, want 1.25", v)
	}
	// Midpoint of the ladder (550 MHz) interpolates to the midpoint voltage.
	v, err := tab.VoltageAt(550)
	if err != nil {
		t.Fatalf("VoltageAt(550): %v", err)
	}
	if math.Abs(float64(v-1.05)) > 1e-9 {
		t.Errorf("VoltageAt(550) = %v, want 1.05", v)
	}
	// A one-point ladder has no span to interpolate over: its only point
	// runs at vMin.
	one := LinearOPPTable(Ladder(500, 500, 100), 0.9, 1.1)
	if v, err := one.VoltageAt(500); err != nil || v != 0.9 {
		t.Errorf("one-point ladder: VoltageAt(500) = %v, %v; want 0.9", v, err)
	}
}

func TestVoltageMonotoneInFrequency(t *testing.T) {
	tab := DefaultCPUOPPs()
	prev := Volts(0)
	for i := 0; i < tab.Len(); i++ {
		f := tab.At(i).F
		v, err := tab.VoltageAt(f)
		if err != nil {
			t.Fatalf("VoltageAt(%v): %v", f, err)
		}
		if v < prev {
			t.Errorf("voltage decreased at %v: %v < %v", f, v, prev)
		}
		prev = v
	}
}

func TestVoltageAtOutOfRange(t *testing.T) {
	tab := DefaultCPUOPPs()
	if _, err := tab.VoltageAt(50); err == nil {
		t.Error("VoltageAt(50) should error below range")
	}
	if _, err := tab.VoltageAt(1500); err == nil {
		t.Error("VoltageAt(1500) should error above range")
	}
}

// TestOPPTablesRejectBadVoltages holds NewOPPTable's and LinearOPPTable's
// voltage checks: each bad table panics, and the platform's table builds.
func TestOPPTablesRejectBadVoltages(t *testing.T) {
	nan, inf := Volts(math.NaN()), Volts(math.Inf(1))
	ladder := Ladder(100, 600, 100)
	for _, tc := range []struct {
		name  string
		build func() *OPPTable
	}{
		{"zero voltage", func() *OPPTable { return NewOPPTable([]OPP{{F: 100, V: 0}, {F: 200, V: 1}}) }},
		{"negative voltage", func() *OPPTable { return NewOPPTable([]OPP{{F: 100, V: -0.1}, {F: 200, V: 1}}) }},
		{"NaN voltage", func() *OPPTable { return NewOPPTable([]OPP{{F: 100, V: 0.9}, {F: 200, V: nan}}) }},
		{"infinite voltage", func() *OPPTable { return NewOPPTable([]OPP{{F: 100, V: 0.9}, {F: 200, V: inf}}) }},
		{"negative infinite voltage", func() *OPPTable { return NewOPPTable([]OPP{{F: 100, V: -inf}}) }},
		{"falling voltage", func() *OPPTable { return NewOPPTable([]OPP{{F: 100, V: 1.1}, {F: 200, V: 1.0}}) }},
		{"falling once sorted", func() *OPPTable { return NewOPPTable([]OPP{{F: 200, V: 1.0}, {F: 100, V: 1.1}}) }},
		{"linear vMin zero", func() *OPPTable { return LinearOPPTable(ladder, 0, 1.05) }},
		{"linear vMin negative", func() *OPPTable { return LinearOPPTable(ladder, -0.7, 1.05) }},
		{"linear vMax below vMin", func() *OPPTable { return LinearOPPTable(ladder, 1.05, 0.7) }},
		{"linear one point, vMax below vMin", func() *OPPTable { return LinearOPPTable(Ladder(500, 500, 100), 1.1, 0.9) }},
		{"linear NaN vMax", func() *OPPTable { return LinearOPPTable(ladder, 0.7, nan) }},
		{"linear infinite vMax", func() *OPPTable { return LinearOPPTable(Ladder(500, 500, 100), 0.7, inf) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("built without a panic")
				}
			}()
			tc.build()
		})
	}
	// The platform's own table builds. cpupower's DefaultParams takes
	// DefaultCPUOPPs, and its tests build LittleParams' linear table.
	if tab := DefaultCPUOPPs(); tab.Min().V <= 0 || tab.Max().V < tab.Min().V {
		t.Errorf("table %v..%v has voltages %v..%v", tab.Min().F, tab.Max().F, tab.Min().V, tab.Max().V)
	}
}

func TestNewOPPTableRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate OPP frequencies did not panic")
		}
	}()
	NewOPPTable([]OPP{{F: 100, V: 1}, {F: 100, V: 1.1}})
}

func TestSpaceEnumeration(t *testing.T) {
	sp := CoarseSpace()
	if sp.Len() != 70 {
		t.Fatalf("coarse space len = %d, want 70", sp.Len())
	}
	// Every setting must round-trip through ID.
	for i, st := range sp.Settings() {
		id, ok := sp.ID(st)
		if !ok || id != SettingID(i) {
			t.Fatalf("ID(%v) = %d,%v; want %d,true", st, id, ok, i)
		}
		if sp.Setting(id) != st {
			t.Fatalf("Setting(ID) round trip failed for %v", st)
		}
	}
	if _, ok := sp.ID(Setting{CPU: 123, Mem: 456}); ok {
		t.Error("ID of non-member setting reported ok")
	}
}

func TestSpaceMinMax(t *testing.T) {
	sp := CoarseSpace()
	if got := sp.Max(); got != (Setting{CPU: 1000, Mem: 800}) {
		t.Errorf("Max = %v", got)
	}
	if got := sp.Min(); got != (Setting{CPU: 100, Mem: 200}) {
		t.Errorf("Min = %v", got)
	}
}

func TestFineSpaceSize(t *testing.T) {
	if got := FineSpace().Len(); got != 496 {
		t.Errorf("fine space len = %d, want 496", got)
	}
}

func TestSpaceOrderingCPUMajor(t *testing.T) {
	sp := NewSpace([]MHz{100, 200}, []MHz{10, 20, 30})
	want := []Setting{{100, 10}, {100, 20}, {100, 30}, {200, 10}, {200, 20}, {200, 30}}
	for i, w := range want {
		if sp.Setting(SettingID(i)) != w {
			t.Errorf("setting %d = %v, want %v", i, sp.Setting(SettingID(i)), w)
		}
	}
}

// Property: for any frequency inside the table range, interpolated voltage
// lies between the table's min and max voltages, and is monotone.
func TestVoltageInterpolationBounds(t *testing.T) {
	tab := DefaultCPUOPPs()
	f := func(x float64) bool {
		fr := MHz(100 + math.Mod(math.Abs(x), 900))
		v, err := tab.VoltageAt(fr)
		if err != nil {
			return false
		}
		return v >= tab.Min().V && v <= tab.Max().V
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Ladder output is strictly increasing and within bounds.
func TestLadderMonotoneProperty(t *testing.T) {
	f := func(loRaw, spanRaw, stepRaw uint16) bool {
		lo := MHz(1 + loRaw%2000)
		hi := lo + MHz(spanRaw%3000)
		step := MHz(1 + stepRaw%97)
		l := Ladder(lo, hi, step)
		if len(l) == 0 || l[0] != lo {
			return false
		}
		for i := 1; i < len(l); i++ {
			if l[i] <= l[i-1] || l[i] > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
