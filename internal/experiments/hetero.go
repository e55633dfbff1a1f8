package experiments

import (
	"context"
	"fmt"
	"math"

	"mcdvfs/internal/cpupower"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/report"
	"mcdvfs/internal/sim"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

// HeteroCell is one (benchmark, budget) comparison between core types.
type HeteroCell struct {
	Benchmark string
	Budget    float64
	// BigTimeNS and LittleTimeNS are the best pinned-setting execution
	// times each core achieves within the budget (relative to the global
	// Emin across both cores); +Inf when a core has no admissible setting.
	BigTimeNS    float64
	LittleTimeNS float64
	Winner       string
}

// HeteroResult compares a big (A15-class) and a LITTLE (A7-class) core
// under shared inefficiency budgets — the heterogeneous-core trade-off the
// paper's introduction names as the next energy-performance knob. The
// comparison uses pinned-setting frontiers with inefficiency measured
// against the global (both-cores) minimum energy, so a budget of 1.0 can
// only be met by the genuinely most efficient core.
type HeteroResult struct {
	Benchmarks []string
	Budgets    []float64
	Cells      []HeteroCell
	// CrossoverBudget per benchmark: the smallest budget at which the big
	// core overtakes the LITTLE core (0 if the big core always wins, +Inf
	// if it never does).
	CrossoverBudget map[string]float64
}

// littleCPIFactor models the LITTLE core's weaker microarchitecture.
const littleCPIFactor = 1.6

// littleSpace is the LITTLE core's setting space: its CPU tops out at
// 600 MHz, and it shares the big core's memory ladder.
func littleSpace() *freq.Space {
	return freq.NewSpace(freq.Ladder(100, 600, 100), freq.Ladder(freq.MemMinMHz, freq.MemMaxMHz, 100))
}

// Hetero runs the comparison. The LITTLE core shares the lab's platform
// (memory device, measurement noise) and collection path, and its grids
// are collected under ctx; only its CPU power and CPI factor differ.
func (l *Lab) Hetero(ctx context.Context, benches []string, budgets []float64) (*HeteroResult, error) {
	littleCfg := l.cfg
	littleCfg.CPUPower = cpupower.LittleParams()
	littleCfg.CPIFactor = littleCPIFactor
	littleSys, err := sim.New(littleCfg)
	if err != nil {
		return nil, err
	}
	little := littleSpace()

	res := &HeteroResult{Benchmarks: benches, Budgets: budgets, CrossoverBudget: make(map[string]float64)}
	for _, bench := range benches {
		bigGrid, err := l.GridFor(ctx, l.key(bench, "coarse"))
		if err != nil {
			return nil, err
		}
		b, err := workload.ByName(bench)
		if err != nil {
			return nil, err
		}
		littleGrid, err := l.collectGated(ctx, littleSys, b, little)
		if err != nil {
			return nil, err
		}

		// Global Emin across both cores' pinned settings.
		_, bigEmin := bigGrid.EminSetting()
		_, littleEmin := littleGrid.EminSetting()
		eminGlobal := math.Min(bigEmin, littleEmin)

		bestWithin := func(g *trace.Grid, budget float64) float64 {
			best := math.Inf(1)
			for k := range g.Settings {
				id := freq.SettingID(k)
				if g.TotalEnergyJ(id) <= budget*eminGlobal {
					if t := g.TotalTimeNS(id); t < best {
						best = t
					}
				}
			}
			return best
		}

		crossover := math.Inf(1)
		for _, budget := range budgets {
			cell := HeteroCell{
				Benchmark:    bench,
				Budget:       budget,
				BigTimeNS:    bestWithin(bigGrid, budget),
				LittleTimeNS: bestWithin(littleGrid, budget),
			}
			switch {
			case math.IsInf(cell.BigTimeNS, 1) && math.IsInf(cell.LittleTimeNS, 1):
				cell.Winner = "none"
			case cell.BigTimeNS < cell.LittleTimeNS:
				cell.Winner = "big"
				if budget < crossover {
					crossover = budget
				}
			default:
				cell.Winner = "little"
			}
			res.Cells = append(res.Cells, cell)
		}
		res.CrossoverBudget[bench] = crossover
	}
	return res, nil
}

// Cell returns the entry for (benchmark, budget).
func (r *HeteroResult) Cell(bench string, budget float64) (HeteroCell, error) {
	for _, c := range r.Cells {
		if c.Benchmark == bench && c.Budget == budget {
			return c, nil
		}
	}
	return HeteroCell{}, fmt.Errorf("experiments: no hetero cell for %s I=%v", bench, budget)
}

// Table renders the comparison.
func (r *HeteroResult) Table() *report.Table {
	t := report.NewTable(
		"big.LITTLE under shared inefficiency budgets (best pinned setting; global Emin)",
		"benchmark", "budget", "big (ms)", "LITTLE (ms)", "winner")
	fmtTime := func(ns float64) string {
		if math.IsInf(ns, 1) {
			return "over budget"
		}
		return fmt.Sprintf("%.1f", ns/1e6)
	}
	for _, c := range r.Cells {
		t.AddRow(c.Benchmark, BudgetLabel(c.Budget), fmtTime(c.BigTimeNS), fmtTime(c.LittleTimeNS), c.Winner)
	}
	return t
}
