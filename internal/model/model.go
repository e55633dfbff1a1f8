// Package model implements the predictive cross-component performance and
// energy models the paper leaves as future work (Sections II-B and VIII):
// estimating how a workload interval would behave at *other* settings from
// counters observed at the settings actually visited, so a governor can
// search without a cycle-accurate reference.
//
// The model is physical, not black-box. Per-interval execution time is
//
//	t(fc, fm) = N·α/fc + A·β·L(fm, load)
//
// where N is instructions, A is DRAM accesses (from the MPKI counter), L
// is the controller's average access latency (known analytically from
// internal/memctrl), α is the workload's compute cycles per instruction,
// and β its stall-exposure factor (the reciprocal of memory-level
// parallelism). α and β are not directly observable; the model estimates
// them by recursive least squares over observed (setting, time) pairs —
// cross-component interaction is captured because L couples the memory
// clock and the offered load.
//
// Energy is then derived from the component power models (which a real
// platform knows from its power tables): CPU energy from the three-
// component model with the predicted activity, memory energy from event
// counts plus background over the predicted time.
package model

import (
	"fmt"
	"math"

	"mcdvfs/internal/cpupower"
	"mcdvfs/internal/dram"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/memctrl"
	"mcdvfs/internal/workload"
)

// Counters is what the platform's PMU reports about one completed
// interval: everything here is observable on real hardware.
type Counters struct {
	Setting      freq.Setting
	Instructions uint64
	TimeNS       float64
	MPKI         float64 // DRAM accesses per kilo-instruction
	RowHitRate   float64 // from the memory controller's hit counters
	WriteFrac    float64
}

// Validate reports the first non-physical counter value.
func (c Counters) Validate() error {
	switch {
	case c.Instructions == 0:
		return fmt.Errorf("model: zero instructions")
	case c.TimeNS <= 0:
		return fmt.Errorf("model: non-positive time %v", c.TimeNS)
	case c.MPKI < 0:
		return fmt.Errorf("model: negative MPKI %v", c.MPKI)
	case c.RowHitRate < 0 || c.RowHitRate > 1:
		return fmt.Errorf("model: row hit rate %v outside [0,1]", c.RowHitRate)
	case c.WriteFrac < 0 || c.WriteFrac > 1:
		return fmt.Errorf("model: write fraction %v outside [0,1]", c.WriteFrac)
	}
	return nil
}

// CrossComponent is the online-learned predictor. It is not safe for
// concurrent use; each governor owns one.
type CrossComponent struct {
	cpu  *cpupower.Model
	mem  *dram.EnergyModel
	ctrl *memctrl.Model

	// Recursive least squares state for θ = (α, β) with the regressors
	// x = (N/fc, A·L)/N: we fit time-per-instruction to stay scale-free.
	// P is the 2x2 inverse covariance; theta the estimate.
	theta [2]float64
	p     [2][2]float64
	nObs  int
}

// forget is the RLS forgetting factor: below 1, so the estimate tracks
// phase changes.
const forget = 0.95

// Config assembles a predictor from the platform's known component models.
type Config struct {
	CPUPower cpupower.Params
	Device   dram.Device
}

// New builds a predictor.
func New(cfg Config) (*CrossComponent, error) {
	cpu, err := cpupower.New(cfg.CPUPower)
	if err != nil {
		return nil, err
	}
	mem, err := dram.NewEnergyModel(cfg.Device)
	if err != nil {
		return nil, err
	}
	ctrl, err := memctrl.New(cfg.Device)
	if err != nil {
		return nil, err
	}
	m := &CrossComponent{cpu: cpu, mem: mem, ctrl: ctrl}
	m.reset()
	return m, nil
}

// reset initializes the RLS state with a weak physical prior: α ≈ 1 cycle
// per instruction, β ≈ 0.5 exposed fraction.
func (m *CrossComponent) reset() {
	m.theta = [2]float64{1.0, 0.5}
	m.p = [2][2]float64{{100, 0}, {0, 100}}
	m.nObs = 0
}

// Ready reports whether the model has absorbed enough observations to
// predict with learned coefficients (two, to pin both α and β).
func (m *CrossComponent) Ready() bool { return m.nObs >= 2 }

// Alpha returns the current compute-cycles-per-instruction estimate, which
// Observe keeps at 0.05 or more.
func (m *CrossComponent) Alpha() float64 { return m.theta[0] }

// Beta returns the current stall-exposure estimate (≈ 1/MLP), which Observe
// keeps within [0, 1.5].
func (m *CrossComponent) Beta() float64 { return m.theta[1] }

// Observe folds one completed interval into the estimate.
func (m *CrossComponent) Observe(c Counters) error {
	if err := c.Validate(); err != nil {
		return err
	}
	n := float64(c.Instructions)
	accesses := n * c.MPKI / 1000
	lat, err := m.latency(c.Setting.Mem, c, accesses, c.TimeNS)
	if err != nil {
		return err
	}
	// Regressors for time-per-instruction:
	// t/N = α·(1/fc in ns) + β·(A·L/N)
	x := [2]float64{
		1 / c.Setting.CPU.GHz(),
		accesses * lat / n,
	}
	y := c.TimeNS / n

	// RLS update with forgetting.
	px := [2]float64{
		m.p[0][0]*x[0] + m.p[0][1]*x[1],
		m.p[1][0]*x[0] + m.p[1][1]*x[1],
	}
	denom := forget + x[0]*px[0] + x[1]*px[1]
	gain := [2]float64{px[0] / denom, px[1] / denom}
	residual := y - (x[0]*m.theta[0] + x[1]*m.theta[1])
	m.theta[0] += gain[0] * residual
	m.theta[1] += gain[1] * residual
	// Keep the coefficients physical.
	if m.theta[0] < 0.05 {
		m.theta[0] = 0.05
	}
	if m.theta[1] < 0 {
		m.theta[1] = 0
	}
	if m.theta[1] > 1.5 {
		m.theta[1] = 1.5
	}
	// P = (P - gain·pxᵀ)/forget
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			m.p[i][j] = (m.p[i][j] - gain[i]*px[j]) / forget
		}
	}
	m.nObs++
	return nil
}

// latency returns the average access latency at memory clock fm for the
// interval's traffic, using the offered load implied by timeNS.
func (m *CrossComponent) latency(fm freq.MHz, c Counters, accesses, timeNS float64) (float64, error) {
	load := memctrl.Load{RowHitRate: c.RowHitRate, WriteFrac: c.WriteFrac}
	if timeNS > 0 {
		load.AccessPerNS = accesses / timeNS
	}
	return m.ctrl.AvgLatencyNS(fm, load)
}

// PredictCounters predicts the interval's behaviour at a candidate setting
// from the last observed counters, solving the same load fixed point the
// platform exhibits.
func (m *CrossComponent) PredictCounters(c Counters, st freq.Setting) (timeNS, energyJ float64, err error) {
	if err := c.Validate(); err != nil {
		return 0, 0, err
	}
	n := float64(c.Instructions)
	accesses := n * c.MPKI / 1000
	computeNS := n * m.theta[0] / st.CPU.GHz()

	bwBound, err := m.ctrl.MinServiceTimeNS(st.Mem, accesses)
	if err != nil {
		return 0, 0, err
	}
	t := computeNS
	for i := 0; i < 30; i++ {
		lat, err := m.latency(st.Mem, c, accesses, t)
		if err != nil {
			return 0, 0, err
		}
		next := computeNS + m.theta[1]*accesses*lat
		if next < bwBound {
			next = bwBound
		}
		next = (next + t) / 2
		if math.Abs(next-t) < 1e-9*t {
			t = next
			break
		}
		t = next
	}

	activity := 1.0
	if t > 0 {
		activity = computeNS / t
	}
	if activity > 1 {
		activity = 1
	}
	cpuE, err := m.cpu.Energy(st.CPU, activity, t)
	if err != nil {
		return 0, 0, err
	}
	lineBursts := float64(m.mem.Device().LineBursts())
	counts := dram.Counts{
		Reads:     dram.RoundCount(accesses * (1 - c.WriteFrac) * lineBursts),
		Writes:    dram.RoundCount(accesses * c.WriteFrac * lineBursts),
		Activates: dram.RoundCount(accesses * (1 - c.RowHitRate)),
	}
	memE, err := m.mem.Energy(st.Mem, counts, t)
	if err != nil {
		return 0, 0, err
	}
	return t, cpuE + memE, nil
}

// ObserveCounters implements the governor package's Observer interface,
// letting the Budget governor feed completed intervals into the estimate.
func (m *CrossComponent) ObserveCounters(st freq.Setting, instructions uint64, timeNS, mpki, rowHitRate, writeFrac float64) error {
	return m.Observe(Counters{
		Setting:      st,
		Instructions: instructions,
		TimeNS:       timeNS,
		MPKI:         mpki,
		RowHitRate:   rowHitRate,
		WriteFrac:    writeFrac,
	})
}

// Predict implements governor.Model using only observable counters: the
// profile's MPKI, row-hit rate, and write fraction are PMU-visible, while
// BaseCPI and MLP — which the perfect model consumes — are replaced by the
// learned α and β. This makes the learned model a drop-in replacement for
// the oracle in governor.BudgetConfig.
func (m *CrossComponent) Predict(profile workload.SampleSpec, st freq.Setting) (float64, float64, error) {
	c := Counters{
		Setting:      st,
		Instructions: profile.Instructions,
		TimeNS:       1, // unused by prediction; Validate needs positive
		MPKI:         profile.MPKI,
		RowHitRate:   profile.RowHitRate,
		WriteFrac:    profile.WriteFrac,
	}
	return m.PredictCounters(c, st)
}
