package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"fastcppr/cppr"
	"fastcppr/gen"
	"fastcppr/internal/qerr"
	"fastcppr/model"
	"fastcppr/tau"
)

// Config parameterises a Server. The zero value gets sane defaults from
// withDefaults.
type Config struct {
	// MaxBatch is the coalescing batcher's flush size: a batch waiting
	// behind a busy design dispatches as soon as it holds this many
	// requests. Default 16; 1 disables coalescing (every request is its
	// own batch).
	MaxBatch int
	// MaxWait is the longest a request waits behind a busy design's
	// in-flight flush: a request that finds the design idle dispatches
	// at once, and one that arrives during a flush joins the next batch,
	// which dispatches when a flush completes, when full, or once its
	// oldest request has waited MaxWait. Default 2ms.
	MaxWait time.Duration
	// MaxConcurrent bounds requests in service simultaneously (the
	// admission semaphore). Default 2×GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for admission; one more is shed
	// with ErrOverloaded and a Retry-After. Default 4×MaxConcurrent.
	MaxQueue int
	// MaxDesigns bounds the registry. Default 64.
	MaxDesigns int
	// DefaultTimeout is the per-query deadline applied when a request
	// does not carry its own timeout_ms. Default 30s; negative disables.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested per-query deadline. Default 5m.
	MaxTimeout time.Duration
	// Parallelism is installed on every loaded design's Timer (see
	// cppr.Timer.SetParallelism). The zero value keeps the Timer default:
	// all cores for both the batch executor and intra-query work.
	Parallelism cppr.Parallelism
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.MaxWait == 0 {
		c.MaxWait = 2 * time.Millisecond
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.MaxDesigns <= 0 {
		c.MaxDesigns = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.DefaultTimeout < 0 {
		c.DefaultTimeout = 0
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// Server is the HTTP front end: registry + admission + per-design
// batchers behind a JSON API.
//
//	POST   /v1/designs        load a design (preset or inline tau text)
//	GET    /v1/designs        list loaded designs
//	DELETE /v1/designs/{id}   evict (drains in-flight queries first)
//	POST   /v1/designs/{id}/arc  what-if edit: set one arc's delay
//	POST   /v1/query          run one query through the batcher
//	GET    /stats             JSON counters (server + per design)
//	GET    /metrics           flat CSV-friendly metric lines
//	GET    /healthz           liveness (503 while draining)
type Server struct {
	cfg Config
	reg *Registry
	adm *admission
	mux *http.ServeMux

	start    time.Time
	draining atomic.Bool
	// Server-level served-traffic counters. Sheds that happen before the
	// design is resolved cannot be attributed to a Timer, so the server
	// keeps its own totals alongside the per-design TimerStats.
	admitted atomic.Int64
	shed     atomic.Int64
}

// New builds a Server. Call Handler to mount it and Close to drain it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   NewRegistry(cfg),
		adm:   newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	s.mux.HandleFunc("POST /v1/designs", s.contain(s.handleLoad))
	s.mux.HandleFunc("GET /v1/designs", s.contain(s.handleList))
	s.mux.HandleFunc("DELETE /v1/designs/{id}", s.contain(s.handleEvict))
	s.mux.HandleFunc("POST /v1/designs/{id}/arc", s.contain(s.handleEdit))
	s.mux.HandleFunc("POST /v1/query", s.contain(s.handleQuery))
	s.mux.HandleFunc("GET /stats", s.contain(s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.contain(s.handleMetrics))
	s.mux.HandleFunc("GET /healthz", s.contain(s.handleHealthz))
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the design table (used by preloading and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Close drains the server: new queries are refused with
// ErrShuttingDown, every design is evicted and its in-flight queries
// drained, bounded by deadline (zero = wait forever). It reports
// whether the drain completed in time. Safe to call once; pair it with
// http.Server.Shutdown for the listener side.
func (s *Server) Close(deadline time.Duration) bool {
	s.draining.Store(true)
	s.adm.close()
	return s.reg.Close(deadline)
}

// contain wraps a handler with per-request panic containment: a panic
// anywhere below (fault injection, handler bug, engine invariant that
// escaped the engine's own recovery) answers 500 with the error
// taxonomy's internal kind instead of killing the process.
func (s *Server) contain(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.writeError(w, qerr.FromPanic("serve.request", rec))
			}
		}()
		h(w, r)
	}
}

// errorBody is the JSON error envelope. Kind is stable and documented;
// Error is human-readable detail.
type errorBody struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// errKind maps a taxonomy error to its wire kind and HTTP status.
func errKind(err error) (kind string, status int) {
	var ie *cppr.InternalError
	switch {
	case errors.Is(err, ErrUnknownDesign):
		return "unknown_design", http.StatusNotFound
	case errors.Is(err, qerr.ErrOverloaded):
		return "overloaded", http.StatusTooManyRequests
	case errors.Is(err, qerr.ErrShuttingDown):
		return "shutting_down", http.StatusServiceUnavailable
	case errors.Is(err, qerr.ErrDeadlineExceeded):
		return "deadline_exceeded", http.StatusGatewayTimeout
	case errors.Is(err, qerr.ErrCanceled):
		return "canceled", 499 // client closed request (nginx convention)
	case errors.Is(err, qerr.ErrBudgetExhausted):
		return "budget_exhausted", http.StatusUnprocessableEntity
	case errors.As(err, &ie):
		return "internal", http.StatusInternalServerError
	case errors.Is(err, qerr.ErrInvalidQuery):
		return "invalid", http.StatusBadRequest
	default:
		return "error", http.StatusBadRequest
	}
}

// writeError answers with the taxonomy mapping; overload and shutdown
// refusals carry a Retry-After so well-behaved clients back off instead
// of hammering.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	kind, status := errKind(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(s.adm.retryAfter().Seconds())))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Kind: kind, Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// LoadRequest loads a design into the registry: either a named preset
// (scaled stand-in for a paper benchmark) or inline tau-format text.
type LoadRequest struct {
	ID string `json:"id"`
	// Preset names a gen preset (see gen.PresetNames); Scale sizes it
	// (0 = the laptop-class default 0.02).
	Preset string  `json:"preset,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	// Corners > 1 extends the design with derated extra corners so
	// multi-corner queries have something to fan out over.
	Corners int `json:"corners,omitempty"`
	// Tau, when set instead of Preset, is the design file text.
	Tau string `json:"tau,omitempty"`
}

// DesignInfo describes one loaded design.
type DesignInfo struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	Pins    int    `json:"pins"`
	Arcs    int    `json:"arcs"`
	FFs     int    `json:"ffs"`
	Corners int    `json:"corners"`
	// InFlight is the number of queries currently holding the design.
	InFlight int    `json:"in_flight"`
	LoadedAt string `json:"loaded_at"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, qerr.ShuttingDown("draining; not loading designs"))
		return
	}
	var req LoadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, qerr.Invalid("bad load request: %v", err))
		return
	}
	d, err := BuildDesign(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if err := s.reg.Load(req.ID, d); err != nil {
		s.writeError(w, err)
		return
	}
	e, _ := s.reg.get(req.ID)
	writeJSON(w, http.StatusCreated, designInfo(req.ID, e))
}

// BuildDesign materialises a LoadRequest's design (exported for the
// CLI preload path).
func BuildDesign(req LoadRequest) (*model.Design, error) {
	var d *model.Design
	switch {
	case req.Preset != "" && req.Tau != "":
		return nil, qerr.Invalid("preset and tau are mutually exclusive")
	case req.Preset != "":
		scale := req.Scale
		if scale == 0 {
			scale = 0.02
		}
		spec, err := gen.PresetSpec(req.Preset, scale)
		if err != nil {
			return nil, qerr.Invalid("bad preset: %v", err)
		}
		d, err = gen.Generate(spec)
		if err != nil {
			return nil, qerr.Invalid("generate: %v", err)
		}
	case req.Tau != "":
		var err error
		d, err = tau.Read(strings.NewReader(req.Tau))
		if err != nil {
			return nil, qerr.Invalid("parse tau: %v", err)
		}
	default:
		return nil, qerr.Invalid("load request needs preset or tau")
	}
	if req.Corners < 0 || req.Corners > model.MaxCorners {
		return nil, qerr.Invalid("corners %d out of range [0, %d]", req.Corners, model.MaxCorners)
	}
	// Extra corners are symmetric derates around the base corner: the
	// standard fast/slow sweep a signoff flow queries together.
	for i := 1; i < req.Corners; i++ {
		spread := 0.05 * float64(i)
		var err error
		d, _, err = d.WithScaledCorner(fmt.Sprintf("c%d", i), 1-spread, 1+spread)
		if err != nil {
			return nil, qerr.Invalid("corner %d: %v", i, err)
		}
	}
	return d, nil
}

func designInfo(id string, e *entry) DesignInfo {
	d := e.timer.Design()
	return DesignInfo{
		ID:       id,
		Name:     d.Name,
		Pins:     d.NumPins(),
		Arcs:     d.NumArcs(),
		FFs:      d.NumFFs(),
		Corners:  d.NumCorners(),
		InFlight: e.refCount(),
		LoadedAt: e.loadedAt.UTC().Format(time.RFC3339),
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ids := s.reg.IDs()
	sort.Strings(ids)
	out := make([]DesignInfo, 0, len(ids))
	for _, id := range ids {
		if e, ok := s.reg.get(id); ok {
			out = append(out, designInfo(id, e))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	drained, err := s.reg.Evict(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Eviction always drains; the only question is whether this request
	// waits to observe it. The default waits (bounded by the request
	// context); ?wait=0 returns 202 immediately.
	if r.URL.Query().Get("wait") == "0" {
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
		return
	}
	select {
	case <-drained:
		writeJSON(w, http.StatusOK, map[string]string{"status": "evicted"})
	case <-r.Context().Done():
		writeJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
	}
}

// EditRequest is a what-if arc-delay edit on a loaded design.
type EditRequest struct {
	From    string `json:"from"`
	To      string `json:"to"`
	EarlyPs int64  `json:"early_ps"`
	LatePs  int64  `json:"late_ps"`
	Corner  int    `json:"corner,omitempty"`
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req EditRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, qerr.Invalid("bad edit request: %v", err))
		return
	}
	h, err := s.reg.Acquire(id)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer h.Release()
	d := h.Timer().Design()
	from, ok := d.PinByName(req.From)
	if !ok {
		s.writeError(w, qerr.Invalid("unknown pin %q", req.From))
		return
	}
	to, ok := d.PinByName(req.To)
	if !ok {
		s.writeError(w, qerr.Invalid("unknown pin %q", req.To))
		return
	}
	win := model.Window{Early: model.Ps(req.EarlyPs), Late: model.Ps(req.LatePs)}
	if err := h.Timer().SetArcDelayAt(model.Corner(req.Corner), from, to, win); err != nil {
		s.writeError(w, qerr.Invalid("edit: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "edited"})
}

// QueryRequest is one top-k query against a loaded design.
type QueryRequest struct {
	Design string `json:"design"`
	K      int    `json:"k"`
	// Mode is "setup" (default) or "hold".
	Mode string `json:"mode,omitempty"`
	// Algorithm is a cppr.ParseAlgorithm name; default "lca".
	Algorithm string `json:"algorithm,omitempty"`
	// Corners selects delay corners: "" (base), "all", or a
	// comma-separated corner-index list like "0,2".
	Corners string `json:"corners,omitempty"`
	// TimeoutMs overrides the server's default per-query deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// NoCoalesce bypasses the batcher: the query runs alone via
	// Timer.Run (benchmark control, and an escape hatch for
	// latency-critical singletons).
	NoCoalesce bool `json:"no_coalesce,omitempty"`
	// NoCache bypasses the timer's cross-call result caches so the
	// query does real work (benchmark control; see cppr.Query.NoCache).
	NoCache    bool `json:"no_cache,omitempty"`
	IncludePOs bool `json:"include_pos,omitempty"`
	// CRPR selects the credit semantics: "" (the design's SDC default),
	// "same_pin" or "same_transition".
	CRPR string `json:"crpr,omitempty"`
}

// TimingBreakdown is the per-request latency decomposition returned
// with every query response.
type TimingBreakdown struct {
	// AdmissionUs is time spent waiting for an admission slot.
	AdmissionUs int64 `json:"admission_us"`
	// BatchWaitUs is time spent in the batcher before its flush.
	BatchWaitUs int64 `json:"batch_wait_us"`
	// ExecUs is the wall time of the shared execution that served the
	// request.
	ExecUs int64 `json:"exec_us"`
	// TotalUs is end-to-end handler time.
	TotalUs int64 `json:"total_us"`
	// BatchSize is the number of requests flushed together; > 1 means
	// the request shared its ReportBatch call.
	BatchSize int `json:"batch_size"`
	// Coalesced reports that the request was flushed with at least one
	// other request.
	Coalesced bool `json:"coalesced"`
}

// QueryResponse answers a query.
type QueryResponse struct {
	Design string          `json:"design"`
	Report cppr.ReportJSON `json:"report"`
	// Degraded mirrors Report.Degraded: a budgeted search exhausted its
	// budget and the paths are an (individually exact) partial answer.
	Degraded bool            `json:"degraded,omitempty"`
	Timing   TimingBreakdown `json:"timing"`
}

// parseQuery translates the wire request into an engine query.
func (s *Server) parseQuery(req QueryRequest) (cppr.Query, error) {
	q := cppr.Query{K: req.K, IncludePOs: req.IncludePOs, NoCache: req.NoCache}
	switch req.Mode {
	case "", "setup":
		q.Mode = model.Setup
	case "hold":
		q.Mode = model.Hold
	default:
		return q, qerr.Invalid("bad mode %q (want setup|hold)", req.Mode)
	}
	algo, err := cppr.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return q, qerr.Invalid("%v", err)
	}
	q.Algorithm = algo
	switch req.Corners {
	case "":
	case "all":
		q.Corners = cppr.CornerAll
	default:
		for _, part := range strings.Split(req.Corners, ",") {
			var c int
			if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &c); err != nil || c < 0 || c >= model.MaxCorners {
				return q, qerr.Invalid("bad corners entry %q", part)
			}
			q.Corners |= cppr.CornerBit(model.Corner(c))
		}
	}
	if req.CRPR != "" {
		m, err := model.ParseCRPRMode(req.CRPR)
		if err != nil {
			return q, qerr.Invalid("%v", err)
		}
		if m == model.CRPRSameTransition {
			q.CRPR = cppr.CRPRSameTransition
		} else {
			q.CRPR = cppr.CRPRSamePin
		}
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs != 0 {
		if req.TimeoutMs < 0 {
			return q, qerr.Invalid("negative timeout_ms %d", req.TimeoutMs)
		}
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	q.Timeout = timeout
	return q, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, qerr.Invalid("bad query request: %v", err))
		return
	}
	q, err := s.parseQuery(req)
	if err != nil {
		s.writeError(w, err)
		return
	}

	// Admission gates everything downstream: a shed request never costs
	// a registry ref, a batcher slot, or engine work.
	release, queued, err := s.adm.admit(r.Context())
	if err != nil {
		s.shed.Add(1)
		// Attribute the shed to the design's timer when it resolves;
		// pre-admission sheds on unknown designs stay server-level only.
		if e, ok := s.reg.get(req.Design); ok {
			e.timer.NoteServed(0, 1)
		}
		s.writeError(w, err)
		return
	}
	defer release()

	h, err := s.reg.Acquire(req.Design)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer h.Release()
	s.admitted.Add(1)
	h.Timer().NoteServed(1, 0)

	// The request context carries the same budget as Query.Timeout so an
	// abandoned wait and an engine-level deadline agree.
	ctx := r.Context()
	if q.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, q.Timeout+s.cfg.MaxWait)
		defer cancel()
	}

	var rep cppr.Report
	var timing TimingBreakdown
	if req.NoCoalesce {
		rep, err = h.Timer().Run(ctx, q)
		if err != nil {
			s.writeError(w, err)
			return
		}
		timing = TimingBreakdown{ExecUs: rep.Elapsed.Microseconds(), BatchSize: 1}
	} else {
		out, serr := h.e.batcher.submit(ctx, q)
		if serr != nil {
			s.writeError(w, serr)
			return
		}
		if out.res.Err != nil {
			s.writeError(w, out.res.Err)
			return
		}
		rep = out.res.Report
		timing = TimingBreakdown{
			BatchWaitUs: out.wait.Microseconds(),
			ExecUs:      out.exec.Microseconds(),
			BatchSize:   out.batchSize,
			Coalesced:   out.batchSize > 1,
		}
	}
	timing.AdmissionUs = queued.Microseconds()
	timing.TotalUs = time.Since(start).Microseconds()
	writeJSON(w, http.StatusOK, QueryResponse{
		Design:   req.Design,
		Report:   rep.JSON(h.Timer().Design(), q.Mode, q.K),
		Degraded: rep.Degraded,
		Timing:   timing,
	})
}

// ServerStats is the /stats payload.
type ServerStats struct {
	UptimeS float64 `json:"uptime_s"`
	// Admitted/Shed are server totals (sheds include requests refused
	// before their design resolved).
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	// Waiting/InService are the admission controller's instantaneous
	// queue depth and busy-slot count.
	Waiting   int64 `json:"waiting"`
	InService int   `json:"in_service"`
	Draining  bool  `json:"draining"`
	Designs   int   `json:"designs"`

	// PerDesign maps design id to its timer's counters.
	PerDesign map[string]cppr.TimerStats `json:"per_design"`
}

func (s *Server) stats() ServerStats {
	waiting, inService := s.adm.depth()
	st := ServerStats{
		UptimeS:   time.Since(s.start).Seconds(),
		Admitted:  s.admitted.Load(),
		Shed:      s.shed.Load(),
		Waiting:   waiting,
		InService: inService,
		Draining:  s.draining.Load(),
		PerDesign: map[string]cppr.TimerStats{},
	}
	for _, id := range s.reg.IDs() {
		if e, ok := s.reg.get(id); ok {
			st.PerDesign[id] = e.timer.Stats()
		}
	}
	st.Designs = len(st.PerDesign)
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.stats())
}

// handleMetrics renders the counters as flat CSV-friendly lines:
// metric,design,value — one fact per line, greppable and loadable into
// a spreadsheet without a parser.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var sb strings.Builder
	sb.WriteString("metric,design,value\n")
	row := func(metric, design string, v any) {
		fmt.Fprintf(&sb, "%s,%s,%v\n", metric, design, v)
	}
	row("uptime_seconds", "", fmt.Sprintf("%.3f", st.UptimeS))
	row("admitted_total", "", st.Admitted)
	row("shed_total", "", st.Shed)
	row("admission_waiting", "", st.Waiting)
	row("admission_in_service", "", st.InService)
	row("draining", "", boolToInt(st.Draining))
	row("designs_loaded", "", st.Designs)
	ids := make([]string, 0, len(st.PerDesign))
	for id := range st.PerDesign {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ts := st.PerDesign[id]
		row("served_admitted", id, ts.ServedAdmitted)
		row("served_shed", id, ts.ServedShed)
		row("served_degraded", id, ts.ServedDegraded)
		row("served_coalesced", id, ts.ServedCoalesced)
		row("edit_seq", id, ts.EditSeq)
		row("job_cache_hits", id, ts.JobCacheHits)
		row("job_cache_misses", id, ts.JobCacheMisses)
		row("job_cache_patched", id, ts.JobCachePatched)
		row("query_memo_hits", id, ts.QueryMemoHits)
		row("query_memo_misses", id, ts.QueryMemoMisses)
		row("forks", id, ts.Forks)
		row("whatif_candidates", id, ts.WhatIfCandidates)
		row("cone_skips", id, ts.ConeSkips)
		row("macromodels_extracted", id, ts.MacroExtracted)
		row("macromodel_reuses", id, ts.MacroReused)
		row("macromodel_reextracted", id, ts.MacroReextracted)
	}
	w.Write([]byte(sb.String()))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}
