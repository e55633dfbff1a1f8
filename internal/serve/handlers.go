package serve

// The endpoint handlers. Conventions: POST bodies are strict JSON (unknown
// fields rejected, 1 MiB cap), every response is JSON except /metrics,
// errors come back as {"error": "..."}, and each handler threads
// r.Context() into the work it owns so a client disconnect cancels exactly
// that client's share.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"mcdvfs/internal/experiments"
	"mcdvfs/internal/freq"
	"mcdvfs/internal/predict"
	"mcdvfs/internal/trace"
	"mcdvfs/internal/workload"
)

const maxBodyBytes = 1 << 20

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/grid", s.handleGrid)
	s.mux.HandleFunc("POST /v1/optimal", s.handleOptimal)
	s.mux.HandleFunc("POST /v1/stability", s.handleStability)
	s.mux.HandleFunc("POST /v1/emin", s.handleEmin)
	s.mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// decode parses a strict JSON body into dst: one JSON value, followed by
// nothing but whitespace. The cluster router probes a body with
// json.Unmarshal, which refuses trailing data too, so a body routes and
// decodes alike.
func decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid request body: data after the JSON value")
	}
	return nil
}

// WriteJSON writes v as a JSON response with the given status. The
// cluster router answers with the same writer, so a routed response is
// byte-identical to a local one. Grid bodies go through writeBody.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the {"error": msg} body every endpoint fails with.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// fail maps a work error onto a response: saturation sheds with 429 +
// Retry-After (RetryAfter rounded up to whole seconds, so a sub-second
// hint never reads as "retry now"), deadline overruns are 504, a
// cancelled client gets 408 (nobody is reading, but the metrics class
// should not be a 5xx), and everything else is a 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
		WriteError(w, http.StatusTooManyRequests, "collection capacity saturated; retry later")
	case errors.Is(err, context.DeadlineExceeded):
		WriteError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		WriteError(w, http.StatusRequestTimeout, err.Error())
	default:
		WriteError(w, http.StatusInternalServerError, err.Error())
	}
}

// GridRequest asks for a characterization grid: either a named built-in
// benchmark (cached, coalesced) or an inline workload definition
// (collected per request, never cached).
type GridRequest struct {
	Benchmark string          `json:"benchmark,omitempty"`
	Space     string          `json:"space,omitempty"`
	Workload  json.RawMessage `json:"workload,omitempty"`
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req GridRequest
	if err := decode(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := s.lab.Key(req.Benchmark, req.Space)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	switch {
	case len(req.Workload) > 0 && req.Benchmark != "":
		WriteError(w, http.StatusBadRequest, "benchmark and workload are mutually exclusive")
		return
	case len(req.Workload) > 0:
		b, err := workload.ReadJSON(bytes.NewReader(req.Workload))
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		// Inline workloads bypass the Lab cache but not admission control:
		// they are always a full collection, so they always take a slot.
		g, err := s.lab.CollectWorkload(ctx, b, key.Space)
		if err != nil {
			s.fail(w, err)
			return
		}
		s.met.workloadCollects.Add(1)
		writeGrid(w, g)
	case req.Benchmark != "":
		if _, err := workload.ByName(req.Benchmark); err != nil {
			WriteError(w, http.StatusNotFound, err.Error())
			return
		}
		s.met.gridRequests.Add(1)
		s.writeNamedGrid(ctx, w, key)
	default:
		WriteError(w, http.StatusBadRequest, "missing benchmark or workload")
	}
}

// gridBuffers recycles grid encode buffers between /v1/grid responses. A
// buffer holds a body only while that response is written; the bodies
// that outlive their request are the Lab's kept ones (Lab.GridJSON).
var gridBuffers = sync.Pool{New: func() any { return new([]byte) }}

// writeNamedGrid answers a named benchmark's grid with the Lab's body: its
// kept copy when the Lab keeps one, else an encoding into a pooled
// buffer. A grid JSON cannot represent answers 500, as any other failed
// grid read does.
func (s *Server) writeNamedGrid(ctx context.Context, w http.ResponseWriter, key experiments.GridKey) {
	buf := gridBuffers.Get().(*[]byte)
	defer gridBuffers.Put(buf)
	body, kept, err := s.lab.GridJSON(ctx, key, (*buf)[:0])
	if kept {
		s.met.gridBodyHits.Add(1)
	} else {
		*buf = body[:0]
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	writeBody(w, body)
}

// writeGrid answers 200 with an inline workload's grid body
// (trace.Grid.AppendJSON, the bytes encoding/json writes), encoded into a
// pooled buffer before a status is committed. Validation sets no upper
// bounds (a base CPI of 1e301 passes), so a posted definition can drive
// the model past float64: a grid JSON cannot represent (a NaN or infinite
// cell) answers 400 with the {"error": ...} body instead.
func writeGrid(w http.ResponseWriter, g *trace.Grid) {
	buf := gridBuffers.Get().(*[]byte)
	defer gridBuffers.Put(buf)
	body, err := g.AppendJSON((*buf)[:0])
	*buf = body[:0]
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeBody(w, body)
}

// writeBody answers 200 with a grid body in one Write, framed by its
// Content-Length, so net/http sends it as it is rather than in chunks.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // the status is sent; a failed write is a gone client
}

// OptimalRequest asks for the budget-constrained optimal schedule.
type OptimalRequest struct {
	Benchmark string  `json:"benchmark"`
	Space     string  `json:"space,omitempty"`
	Budget    float64 `json:"budget"`
}

// OptimalSettingJSON is one schedule entry's resolved frequencies.
type OptimalSettingJSON struct {
	ID     int     `json:"id"`
	CPUMHz float64 `json:"cpu_mhz"`
	MemMHz float64 `json:"mem_mhz"`
}

// OptimalResponse is the paper's decision-procedure output: the per-sample
// optimal settings under the inefficiency budget, plus the transition
// statistics of Figure 8.
type OptimalResponse struct {
	Benchmark                  string               `json:"benchmark"`
	Space                      string               `json:"space"`
	Budget                     float64              `json:"budget"`
	NumSamples                 int                  `json:"num_samples"`
	Transitions                int                  `json:"transitions"`
	TransitionsPerBillionInstr float64              `json:"transitions_per_billion_instr"`
	Schedule                   []int                `json:"schedule"`
	Settings                   []OptimalSettingJSON `json:"settings"`
}

func (s *Server) handleOptimal(w http.ResponseWriter, r *http.Request) {
	var req OptimalRequest
	if err := decode(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if _, err := workload.ByName(req.Benchmark); err != nil {
		WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	key, err := s.lab.Key(req.Benchmark, req.Space)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Budget < 1 || math.IsNaN(req.Budget) || math.IsInf(req.Budget, 0) {
		WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("budget %v invalid: inefficiency is relative to Emin, so budgets are finite and >= 1", req.Budget))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()

	s.met.optimalRequests.Add(1)
	memoKey := optimalKey{grid: key, budget: math.Float64bits(req.Budget)}
	resp, hit, err := s.optMemo.Do(ctx, memoKey, func() (*OptimalResponse, error) {
		return s.computeOptimal(ctx, key, req.Budget)
	})
	if hit {
		s.met.optimalMemoHits.Add(1)
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// optimalKey names one memoized /v1/optimal answer: a grid and the exact
// bits of the budget.
type optimalKey struct {
	grid   experiments.GridKey
	budget uint64
}

func (s *Server) computeOptimal(ctx context.Context, key experiments.GridKey, budget float64) (*OptimalResponse, error) {
	s.met.gridRequests.Add(1)
	a, err := s.lab.AnalysisFor(ctx, key)
	if err != nil {
		return nil, err
	}
	sch, err := a.OptimalSchedule(budget)
	if err != nil {
		return nil, err
	}
	resp := &OptimalResponse{
		Benchmark:                  key.Benchmark,
		Space:                      key.Space,
		Budget:                     budget,
		NumSamples:                 a.NumSamples(),
		Transitions:                sch.Transitions(),
		TransitionsPerBillionInstr: a.TransitionsPerBillion(sch.Transitions()),
		Schedule:                   make([]int, len(sch)),
	}
	used := make(map[int]bool)
	for i, id := range sch {
		resp.Schedule[i] = int(id)
		used[int(id)] = true
	}
	ids := make([]int, 0, len(used))
	for id := range used {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	grid := a.Grid()
	for _, id := range ids {
		st := grid.Setting(freq.SettingID(id))
		resp.Settings = append(resp.Settings, OptimalSettingJSON{
			ID:     id,
			CPUMHz: float64(st.CPU),
			MemMHz: float64(st.Mem),
		})
	}
	return resp, nil
}

// StabilityRequest replays a stable-region history into the predictor of
// the paper's Section VII: history holds completed region lengths (oldest
// first), current the samples the in-progress region has already survived.
type StabilityRequest struct {
	History    []int `json:"history"`
	Current    int   `json:"current"`
	MaxHistory int   `json:"max_history,omitempty"`
}

// maxStableRun bounds every region length and current in a
// StabilityRequest: 2^32 samples, 4×10^16 instructions. At that bound
// the predictor's sum over the ~500k lengths a 1 MiB body can hold stays
// inside int64.
const maxStableRun = 1 << 32

// StabilityResponse carries the predicted remaining stable samples.
type StabilityResponse struct {
	PredictedRemaining int `json:"predicted_remaining"`
	HistoryLen         int `json:"history_len"`
	Current            int `json:"current"`
}

func (s *Server) handleStability(w http.ResponseWriter, r *http.Request) {
	var req StabilityRequest
	if err := decode(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	maxHist := req.MaxHistory
	if maxHist == 0 {
		maxHist = 16
	}
	p, err := predict.NewStabilityPredictor(maxHist)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	for _, l := range req.History {
		if l <= 0 || l > maxStableRun {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("region length %d must be in [1, %d]", l, maxStableRun))
			return
		}
		p.ObserveStableRun(l)
		p.ObserveBreak()
	}
	if req.Current < 0 || req.Current > maxStableRun {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("current must be in [0, %d]", maxStableRun))
		return
	}
	p.ObserveStableRun(req.Current)
	WriteJSON(w, http.StatusOK, StabilityResponse{
		PredictedRemaining: p.PredictRemaining(),
		HistoryLen:         len(req.History),
		Current:            p.Current(),
	})
}

// EminRequest drives one of the Emin predictors over an observation
// history and returns the next-sample estimate. Phase-table prediction
// additionally takes per-observation phase signatures and a query
// signature to classify the upcoming sample.
type EminRequest struct {
	Predictor    string        `json:"predictor"`
	Alpha        float64       `json:"alpha,omitempty"`
	Observations []float64     `json:"observations,omitempty"`
	CPIBin       float64       `json:"cpi_bin,omitempty"`
	MPKIBin      float64       `json:"mpki_bin,omitempty"`
	Samples      []EminSample  `json:"samples,omitempty"`
	Query        *PhaseSigJSON `json:"query,omitempty"`
}

// EminSample is one phase-attributed Emin observation.
type EminSample struct {
	CPI   float64 `json:"cpi"`
	MPKI  float64 `json:"mpki"`
	EminJ float64 `json:"emin_j"`
}

// PhaseSigJSON is a (CPI, MPKI) phase signature.
type PhaseSigJSON struct {
	CPI  float64 `json:"cpi"`
	MPKI float64 `json:"mpki"`
}

// EminResponse is the predictor's estimate for the next sample.
type EminResponse struct {
	Predictor      string  `json:"predictor"`
	PredictedEminJ float64 `json:"predicted_emin_j"`
	Known          bool    `json:"known"`
}

func (s *Server) handleEmin(w http.ResponseWriter, r *http.Request) {
	var req EminRequest
	if err := decode(r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	var p predict.EminPredictor
	switch req.Predictor {
	case "", "last-value":
		p = predict.NewLastValue()
	case "ewma":
		alpha := req.Alpha
		if alpha <= 0 {
			alpha = 0.25
		}
		ew, err := predict.NewEWMA(alpha)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		p = ew
	case "phase-table":
		cpiBin, mpkiBin := req.CPIBin, req.MPKIBin
		if cpiBin <= 0 {
			cpiBin = 0.25
		}
		if mpkiBin <= 0 {
			mpkiBin = 4
		}
		pt, err := predict.NewPhaseTable(cpiBin, mpkiBin)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		for _, obs := range req.Samples {
			pt.Classify(obs.CPI, obs.MPKI)
			pt.Observe(obs.EminJ)
		}
		if req.Query == nil {
			WriteError(w, http.StatusBadRequest, "phase-table prediction requires a query signature")
			return
		}
		pt.Classify(req.Query.CPI, req.Query.MPKI)
		p = pt
	default:
		WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown predictor %q (use last-value, ewma, or phase-table)", req.Predictor))
		return
	}
	if req.Predictor != "phase-table" {
		for _, v := range req.Observations {
			p.Observe(v)
		}
	}
	v, known := p.Predict()
	WriteJSON(w, http.StatusOK, EminResponse{Predictor: p.Name(), PredictedEminJ: v, Known: known})
}

// BenchmarkJSON is one registry entry of GET /v1/benchmarks.
type BenchmarkJSON struct {
	Name         string `json:"name"`
	Headline     bool   `json:"headline"`
	Samples      int    `json:"samples"`
	Instructions uint64 `json:"instructions"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	headline := make(map[string]bool)
	for _, n := range workload.HeadlineNames() {
		headline[n] = true
	}
	var out []BenchmarkJSON
	for _, name := range workload.Names() {
		b := workload.MustByName(name)
		out = append(out, BenchmarkJSON{
			Name:         name,
			Headline:     headline[name],
			Samples:      b.NumSamples(),
			Instructions: b.Instructions(),
		})
	}
	WriteJSON(w, http.StatusOK, map[string]any{"benchmarks": out})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.write(w, s.pool.running(), s.pool.queued(), s.lab.ResidentGrids(), s.lab.KeptBodyBytes())
}
