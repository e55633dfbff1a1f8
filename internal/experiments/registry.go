package experiments

import (
	"context"
	"fmt"
	"io"

	"mcdvfs/internal/core"
	"mcdvfs/internal/workload"
)

// Runner regenerates one paper figure, writing its tables to w. Run reads
// the grids it needs under ctx and checks it before each governor run, so
// a cancelled ctx ends it with ctx's error at its next grid read,
// collection or governor run.
type Runner struct {
	ID          string
	Description string
	Run         func(ctx context.Context, l *Lab, w io.Writer) error
}

// Runners returns the experiment registry in figure order.
func Runners() []Runner {
	rs := []Runner{
		{
			ID:          "fig2",
			Description: "Inefficiency vs speedup for bzip2, gobmk, milc (70 settings)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				for _, bench := range Fig02Benchmarks() {
					r, err := l.Fig02(ctx, bench)
					if err != nil {
						return err
					}
					if err := r.Table(l.CoarseSpace()).Render(w); err != nil {
						return err
					}
					fmt.Fprintln(w)
					if _, err := io.WriteString(w, r.Heatmap(l.CoarseSpace())); err != nil {
						return err
					}
					fmt.Fprintln(w)
				}
				return nil
			},
		},
		{
			ID:          "fig3",
			Description: "Optimal performance point per sample for gobmk across inefficiency budgets",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.Fig03(ctx, "gobmk", Fig03Budgets())
				if err != nil {
					return err
				}
				if err := r.Table().Render(w); err != nil {
					return err
				}
				fmt.Fprintln(w)
				_, err = io.WriteString(w, r.Plot())
				return err
			},
		},
		{
			ID:          "fig4",
			Description: "Performance clusters for gobmk (I in {1.0, 1.3} x threshold in {1%, 5%})",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.FigClusters(ctx, "gobmk", Fig04Cases())
				if err != nil {
					return err
				}
				return r.Table("Figure 4").Render(w)
			},
		},
		{
			ID:          "fig5",
			Description: "Performance clusters for milc (I in {1.0, 1.3} x threshold in {1%, 5%})",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.FigClusters(ctx, "milc", Fig04Cases())
				if err != nil {
					return err
				}
				return r.Table("Figure 5").Render(w)
			},
		},
		{
			ID:          "fig6",
			Description: "Stable regions and transitions for lbm (I=1.3, threshold 5%)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.Fig06(ctx, "lbm", 1.3, 0.05)
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "fig7",
			Description: "Stable regions of gcc and lbm across thresholds and budgets",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.Fig07(ctx, []string{"gcc", "lbm"},
					[]float64{1.0, 1.3, core.Unconstrained}, []float64{0.03, 0.05})
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "fig8",
			Description: "Transitions per billion instructions across benchmarks, budgets, thresholds",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.Fig08(ctx, workload.HeadlineNames(), Fig08Budgets(), Fig08Thresholds())
				if err != nil {
					return err
				}
				for _, b := range Fig08Budgets() {
					if err := r.Table(b).Render(w); err != nil {
						return err
					}
					fmt.Fprintln(w)
				}
				return nil
			},
		},
		{
			ID:          "fig9",
			Description: "Distribution of stable-region lengths (gobmk, bzip2 across budgets; all at I=1.3)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				budgets := []float64{1.0, 1.2, 1.3, 1.6}
				ths := []float64{0.01, 0.03, 0.05}
				ga, err := l.Fig09(ctx, []string{"gobmk"}, budgets, ths)
				if err != nil {
					return err
				}
				if err := ga.Table("Figure 9a — gobmk stable-region lengths").Render(w); err != nil {
					return err
				}
				fmt.Fprintln(w)
				gb, err := l.Fig09(ctx, []string{"bzip2"}, budgets, ths)
				if err != nil {
					return err
				}
				if err := gb.Table("Figure 9b — bzip2 stable-region lengths").Render(w); err != nil {
					return err
				}
				fmt.Fprintln(w)
				gc, err := l.Fig09(ctx, workload.HeadlineNames(), []float64{1.3}, ths)
				if err != nil {
					return err
				}
				return gc.Table("Figure 9c — stable-region lengths at I=1.3").Render(w)
			},
		},
		{
			ID:          "fig10",
			Description: "Execution time vs inefficiency budget, normalized to I=1.0",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.Fig10(ctx, workload.HeadlineNames(), Fig10Budgets())
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "fig11",
			Description: "Energy-performance trade-offs at I=1.3 with and without tuning overhead",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.Fig11(ctx, workload.HeadlineNames(), 1.3, Fig11Thresholds(), core.DefaultOverhead())
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "fig12",
			Description: "Cluster sensitivity to frequency step size (70 vs 496 settings, gobmk)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.Fig12(ctx, "gobmk", 1.3, 0.01)
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "governors",
			Description: "Online governor comparison on gobmk (extension of Section VII)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.GovCompare(ctx, "gobmk", 1.3, 0.03)
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "baselines",
			Description: "Inefficiency budget vs rate-limiting and EDP baselines (paper Section II)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.Baselines(ctx, "gobmk", 1.3)
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "cachesens",
			Description: "L2 size sensitivity of the energy-performance space (cache substrate study)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.CacheSensitivity(ctx, 1.3, []int{512 << 10, 1 << 20, 2 << 20, 4 << 20})
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "lowpower",
			Description: "Memory power-down savings on budgeted schedules (MemScale-style, paper ref [11])",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.LowPower(ctx, workload.HeadlineNames(), 1.3)
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "imax",
			Description: "Inefficiency bounds (Imax) across the full benchmark suite (paper Section II-A)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.ImaxSurvey(ctx)
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "hetero",
			Description: "big.LITTLE core choice under shared inefficiency budgets (intro's next trade-off)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.Hetero(ctx, []string{"bzip2", "gobmk", "lbm"},
					[]float64{1.0, 1.1, 1.2, 1.3, 1.6, 2.0})
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "pareto",
			Description: "Whole-run energy-performance Pareto frontiers (the set smart algorithms search)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				for _, bench := range []string{"bzip2", "gobmk", "lbm"} {
					r, err := l.Pareto(ctx, bench)
					if err != nil {
						return err
					}
					if err := r.Table().Render(w); err != nil {
						return err
					}
					fmt.Fprintln(w)
				}
				return nil
			},
		},
		{
			ID:          "fastdvfs",
			Description: "Commercial vs nanosecond-scale transition hardware (paper's Kim et al. reference)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.FastDVFS(ctx, "gobmk", 1.3, []float64{0.01, 0.03, 0.05})
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
		{
			ID:          "modelcmp",
			Description: "Oracle vs online-learned predictive model driving the budget governor (paper future work)",
			Run: func(ctx context.Context, l *Lab, w io.Writer) error {
				r, err := l.ModelCompare(ctx, []string{"gobmk", "lbm", "bzip2"}, 1.3, 0.03)
				if err != nil {
					return err
				}
				return r.Table().Render(w)
			},
		},
	}
	return rs
}

// RunnerByID returns the runner with the given ID.
func RunnerByID(id string) (Runner, error) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
