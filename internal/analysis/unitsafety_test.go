package analysis

import "testing"

// TestSuffixUnit pins the camel-boundary rule: unit suffixes only match on
// a case flip, digit, or underscore boundary, so ordinary words never read
// as units.
func TestSuffixUnit(t *testing.T) {
	cases := []struct {
		name, unit string
	}{
		// Real repository identifiers.
		{"TimeNS", "ns"},
		{"durationNS", "ns"},
		{"TWRns", "ns"},
		{"AccessPerNS", "1/ns"}, // a rate, not a duration
		{"EnergyJ", "J"},
		{"CPUEnergyJ", "J"},
		{"PeakDynamicW", "W"},
		{"BackgroundW", "W"},
		{"maxMHz", "MHz"},
		{"clock_hz", ""}, // lowercase suffix after lowercase: no boundary
		{"SlewUVPerUS", "us"},
		// Whole-name matches.
		{"ns", "ns"},
		{"MHz", "MHz"},
		{"Volts", "V"},
		// Words that must never read as units.
		{"Trans", ""},
		{"Params", ""},
		{"columns", ""},
		{"CSV", ""},
		{"Div", ""},
		{"RMS", ""},
		{"Exec", ""},
		{"status", ""},
	}
	for _, c := range cases {
		if got := suffixUnit(c.name); got != c.unit {
			t.Errorf("suffixUnit(%q) = %q, want %q", c.name, got, c.unit)
		}
	}
}

// TestSuiteNamesStable pins the check names: they are the -disable and
// //lint:allow vocabulary, so renaming one silently orphans every waiver.
func TestSuiteNamesStable(t *testing.T) {
	want := []string{"determinism", "units", "ctx", "goleak", "errflow"}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d checks, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("check %d named %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Applies == nil || a.Run == nil {
			t.Errorf("check %q is missing Doc, Applies or Run", a.Name)
		}
	}
}

// TestUnitsPropagationCatchesSuffixless is the old-miss/new-catch proof for
// the propagation layers: the identifier the fixture's Propagated function
// passes to WaitNS is a bare "f" — suffix matching alone resolves it to no
// unit at all — yet the golden file (unitfix.golden:70) pins the GHz→ns
// mismatch at that call site. The unit the checker reports can only have
// arrived through the local env and the callee summary.
func TestUnitsPropagationCatchesSuffixless(t *testing.T) {
	if got := suffixUnit("f"); got != "" {
		t.Fatalf("suffixUnit(%q) = %q; the fixture's propagation case would be trivial", "f", got)
	}
	diags, err := Run(Options{
		Patterns: []string{"./testdata/src/unitfix"},
		ScopeAll: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Check == "units" && d.Line == 70 {
			found = true
		}
	}
	if !found {
		t.Errorf("no units diagnostic at unitfix.go:70 — interprocedural propagation regressed")
	}
}
