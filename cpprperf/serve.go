package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fastcppr/cppr"
	"fastcppr/internal/serve"
	"fastcppr/model"
)

// serve_mixed: request → response through an in-process serve.Server,
// driven through Handler().ServeHTTP with no sockets. The design (leon2
// at 0.01 scale, 4 corners) is loaded as tau text. Traffic is a seeded
// mix: K ∈ {1,10,100}, setup/hold, base or all corners; about a third
// of queries repeat the previous query's shape, so coalescing and the
// memo can act; about 2% are arc edits. It is the only workload that
// exercises admission, batching, coalescing and JSON encoding, and the
// only one where concurrent readers race a writer's snapshots.
//
// The median latency is measured open loop at a fixed base rate: one
// generator dispatches each request at its due time and latency runs
// from the due time. The highest sustainable rate and the tail latency
// are measured closed loop, in segments that alternate with the
// base-rate rounds: serveClients callers send back to back, which
// saturates the server without queueing past its admission limit.
//
// At the base rate the server works well under a millisecond of a
// request's ~3 ms; the rest is the batcher's MaxWait and goroutine
// wake-ups, so the base-rate tail follows the host's scheduler, not the
// server. At saturation no core idles and the tail is the server's
// work; the base-rate p90 and p99 stay in the per-layer metrics.
const (
	serveScale       = 0.01
	serveCorners     = 4
	serveBaseRate    = 200.0 // requests per second
	serveBaseShare   = 0.5   // share of --seconds at the base rate
	serveMinReqs     = 1000  // base-rate requests per run, at least
	serveClients     = 8
	serveEditEvery   = 50 // every 50th request is an edit: 2%
	serveRepeatEvery = 3  // every third query repeats the previous shape
	serveTimeoutMs   = 5000
	// serveRateWindow is the window of the saturation phase: ops_per_s
	// is the median of its rates, op_p90_ms of its latency p90s.
	serveRateWindow = 250 * time.Millisecond
	serveKMax       = 100
)

// serveShapes are the query shapes of the mix.
func serveShapes() []cppr.Query {
	var qs []cppr.Query
	for _, k := range []int{1, 10, serveKMax} {
		for _, mode := range model.Modes {
			for _, corners := range []cppr.CornerMask{0, cppr.CornerAll} {
				qs = append(qs, cppr.Query{K: k, Mode: mode, Corners: corners, CRPR: cppr.CRPRSamePin})
			}
		}
	}
	return qs
}

// planned is one request of the mix: a query shape, or an edit.
type planned struct {
	shape int // index into serveShapes; -1 for an edit
	edit  cppr.ArcEdit
	body  []byte
}

// call is one request as served.
type call struct {
	p         *planned
	id        int64
	due, done time.Time
	sent      time.Time
	status    int
	body      []byte
	// lo..hi is the window of design states the response may reflect:
	// lo edits were acknowledged before it was sent, at most hi were
	// sent before its reply arrived.
	lo, hi int
}

// harness drives one loaded design on a server.
type harness struct {
	h   http.Handler
	id  string
	rec *recorder
	// mu serialises edits, so the design states form one sequence.
	mu    sync.Mutex
	sent  atomic.Int64
	acked atomic.Int64
	log   []cppr.ArcEdit // acknowledged edits in order; guarded by mu
}

func (hs *harness) do(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	hs.h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

func (hs *harness) exec(c *call) {
	if c.p.shape < 0 {
		hs.editCall(c)
		return
	}
	c.lo = int(hs.acked.Load())
	sp := hs.rec.begin("serve.query", 0, c.id)
	c.sent = time.Now()
	c.status, c.body = hs.do(http.MethodPost, "/v1/query", c.p.body)
	c.done = time.Now()
	hs.rec.end(sp)
	c.hi = int(hs.sent.Load())
}

func (hs *harness) editCall(c *call) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	hs.sent.Add(1)
	sp := hs.rec.begin("serve.edit", 0, c.id)
	c.sent = time.Now()
	c.status, c.body = hs.do(http.MethodPost, "/v1/designs/"+hs.id+"/arc", c.p.body)
	c.done = time.Now()
	hs.rec.end(sp)
	if c.status == http.StatusOK {
		hs.log = append(hs.log, c.p.edit)
		hs.acked.Add(1)
	} else {
		hs.sent.Add(-1)
	}
}

// openLoop dispatches plan at rate requests per second, each request
// on its own goroutine at its due time, and waits for every reply. It
// returns the calls and how late the generator ran at worst.
func (hs *harness) openLoop(plan []planned, rate float64, firstID int64) ([]call, time.Duration) {
	calls := make([]call, len(plan))
	var wg sync.WaitGroup
	var maxLag time.Duration
	start := time.Now().Add(time.Millisecond)
	for i := range plan {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		maxLag = max(maxLag, time.Since(due))
		c := &calls[i]
		c.p, c.id, c.due = &plan[i], firstID+int64(i), due
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs.exec(c)
		}()
	}
	wg.Wait()
	return calls, maxLag
}

// closedLoop runs clients callers back to back through plan for dur.
// It returns the completed calls, the elapsed time and how many plan
// entries were claimed.
func (hs *harness) closedLoop(plan []planned, clients int, dur time.Duration, firstID int64) ([]call, time.Duration, int) {
	calls := make([]call, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(plan)) || time.Now().After(deadline) {
					return
				}
				c := &calls[i]
				c.p, c.id, c.due = &plan[i], firstID+i, time.Now()
				hs.exec(c)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	done := calls[:0]
	for _, c := range calls {
		if c.p != nil {
			done = append(done, c)
		}
	}
	return done, elapsed, min(int(next.Load()), len(plan))
}

// servePlan draws n requests of the mix. Edits and repeats sit at
// fixed positions and the seed draws the arcs, delays and shapes, so
// runs differ in what they ask, not in how much of each kind.
func servePlan(rng *rand.Rand, d *model.Design, dataArcs []int32, shapes [][]byte, n int) []planned {
	plan := make([]planned, n)
	prev := 0
	for i := range plan {
		if i%serveEditEvery == serveEditEvery-1 {
			ai := dataArcs[rng.Intn(len(dataArcs))]
			a := d.Arcs[ai]
			w := scaled(d.ArcDelay(model.BaseCorner, ai), 0.8+0.4*rng.Float64())
			body, _ := json.Marshal(serve.EditRequest{From: d.PinName(a.From), To: d.PinName(a.To), EarlyPs: w.Early.Ps(), LatePs: w.Late.Ps()})
			plan[i] = planned{shape: -1, edit: cppr.ArcEdit{Corner: model.BaseCorner, From: a.From, To: a.To, Delay: w}, body: body}
			continue
		}
		if i%serveRepeatEvery != serveRepeatEvery-1 {
			prev = rng.Intn(len(shapes))
		}
		plan[i] = planned{shape: prev, body: shapes[prev]}
	}
	return plan
}

func queryBody(id string, q cppr.Query) []byte {
	req := serve.QueryRequest{Design: id, K: q.K, Mode: q.Mode.String(), CRPR: "same_pin", TimeoutMs: serveTimeoutMs}
	if q.Corners == cppr.CornerAll {
		req.Corners = "all"
	}
	b, _ := json.Marshal(req)
	return b
}

// served is the part of a query response the checks read.
type served struct {
	Report struct {
		Paths []struct {
			SlackPs int64 `json:"slack_ps"`
		} `json:"paths"`
	} `json:"report"`
	Timing serve.TimingBreakdown `json:"timing"`
}

func runServe(ctx context.Context, cfg runConfig) (*outcome, error) {
	in, err := leon2Inputs(cfg.seed, serveScale, 0, 1, "")
	if err != nil {
		return nil, err
	}
	in.corners = serveCorners // derived by the server from the load request
	par := allWorkers(cfg.workers)
	o := newOutcome()
	rec := cfg.rec
	srv := serve.New(serve.Config{Parallelism: par})
	defer srv.Close(10 * time.Second)
	shapes := serveShapes()

	// Set-up: load the design through POST /v1/designs and run the
	// shape set once on the fresh load. A first load warms the process
	// up untimed; side loads before and after the measured phases spread
	// the samples over the run. Each is evicted again. The "live" load
	// is the one the phases run on.
	hs := &harness{h: srv.Handler(), rec: rec}
	var setups, colds []float64
	var cold []call
	loadCold := func(id string, evict bool) error {
		load, _ := json.Marshal(serve.LoadRequest{ID: id, Tau: string(in.tau), Corners: serveCorners})
		sp := rec.begin("serve.load", 0, int64(len(setups)+1))
		start := time.Now()
		status, body := hs.do(http.MethodPost, "/v1/designs", load)
		setup := time.Since(start).Seconds()
		rec.end(sp)
		if status != http.StatusCreated {
			return fmt.Errorf("load: status %d: %s", status, body)
		}
		start = time.Now()
		for si, q := range shapes {
			c := call{p: &planned{shape: si, body: queryBody(id, q)}, due: time.Now()}
			hs.exec(&c)
			c.lo, c.hi = 0, 0 // a fresh load is design state 0
			cold = append(cold, c)
		}
		if id != "warm" {
			setups = append(setups, setup)
			colds = append(colds, time.Since(start).Seconds())
		}
		if evict {
			if status, body := hs.do(http.MethodDelete, "/v1/designs/"+id, nil); status != http.StatusOK {
				return fmt.Errorf("evict: status %d: %s", status, body)
			}
		}
		return nil
	}
	for _, id := range []string{"warm", "side0", "side1", "side2", "live"} {
		if err := loadCold(id, id != "live"); err != nil {
			return nil, err
		}
	}
	hs.id = "live"

	d0, err := serve.BuildDesign(serve.LoadRequest{Tau: string(in.tau), Corners: serveCorners})
	if err != nil {
		return nil, err
	}
	var dataArcs []int32
	for ai, a := range d0.Arcs {
		if !d0.IsClockPin(a.From) {
			dataArcs = append(dataArcs, int32(ai))
		}
	}
	bodies := make([][]byte, len(shapes))
	for i, q := range shapes {
		bodies[i] = queryBody(hs.id, q)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rounds := max(int(math.Ceil(serveMinReqs/serveBaseRate)), int(serveBaseShare*cfg.seconds.Seconds()))
	perRound := int(serveBaseRate)
	satSeg := max((cfg.seconds-time.Duration(rounds)*time.Second)/time.Duration(rounds), serveRateWindow)
	basePlan := servePlan(rng, d0, dataArcs, bodies, rounds*perRound)
	satPlan := servePlan(rng, d0, dataArcs, bodies, 100000)

	// The measured phases alternate: each round is one second at the
	// base rate, open loop, then a closed-loop saturation segment. Both
	// phases then span the whole run, so a slow stretch of the host
	// falls on both alike. Latency runs from the due time (a
	// closed-loop caller sends at once); a failed request counts as the
	// request timeout, over any limit. Each base round is one window of
	// the base-rate median; the saturation rate and tail are medians
	// over fixed windows of the segments, by completion time.
	var before, after serve.ServerStats
	if err := getJSON(hs, "/stats", &before); err != nil {
		return nil, err
	}
	var base, sat []call
	var lats, p50s, rates, satP90s []float64
	var maxLag time.Duration
	for r, used := 0, 0; r < rounds; r++ {
		calls, lag := hs.openLoop(basePlan[r*perRound:(r+1)*perRound], serveBaseRate, int64(len(base)+len(sat)+1))
		maxLag = max(maxLag, lag)
		var window []float64
		for _, c := range calls {
			lat := float64(c.done.Sub(c.due)) / 1e6
			if c.status != http.StatusOK {
				lat = serveTimeoutMs
			}
			window = append(window, lat)
		}
		lats = append(lats, window...)
		p50s = append(p50s, percentile(window, 50))
		base = append(base, calls...)

		calls, elapsed, n := hs.closedLoop(satPlan[used:], serveClients, satSeg, int64(len(base)+len(sat)+1))
		used += n
		if len(calls) == 0 {
			return nil, fmt.Errorf("no request completed in saturation segment %d", r)
		}
		done := make([]float64, max(int(elapsed/serveRateWindow), 1))
		satLats := make([][]float64, len(done))
		for _, c := range calls {
			w := int(c.done.Sub(calls[0].due) / serveRateWindow)
			if w >= len(done) {
				continue
			}
			lat := float64(c.done.Sub(c.due)) / 1e6
			if c.status == http.StatusOK {
				done[w]++
			} else {
				lat = serveTimeoutMs
			}
			satLats[w] = append(satLats[w], lat)
		}
		for i := range done {
			rates = append(rates, done[i]/serveRateWindow.Seconds())
			satP90s = append(satP90s, percentile(satLats[i], 90))
		}
		sat = append(sat, calls...)
	}
	if err := getJSON(hs, "/stats", &after); err != nil {
		return nil, err
	}
	o.e2e["live_heap_mb"] = liveHeapMB()
	for _, id := range []string{"side3", "side4", "side5", "side6"} {
		if err := loadCold(id, true); err != nil {
			return nil, err
		}
	}
	var editMs []float64
	queries := 0
	for _, c := range slices.Concat(base, sat) {
		if c.p.shape < 0 {
			editMs = append(editMs, float64(c.done.Sub(c.sent))/1e6)
		} else {
			queries++
		}
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["cold_report_s"] = median(colds)
	o.e2e["op_p50_ms"] = median(p50s)
	o.e2e["op_p90_ms"] = median(satP90s)
	o.e2e["ops_per_s"] = median(rates)
	o.opMeanS = mean(lats) / 1e3
	o.note("op_p50_ms = serve_p50_ms: request at %.0f/s open loop, from its due time, %d requests, median of %d one-second windows; over the run p90 = %.3f, serve_p99_ms = %.3f",
		serveBaseRate, len(lats), len(p50s), percentile(lats, 90), percentile(lats, 99))
	o.note("op_p90_ms = serve_p90_ms at saturation, ops_per_s = serve_max_qps: latency p90 and completions per second with %d closed-loop callers, medians of %d windows, %d requests",
		serveClients, len(rates), len(sat))

	// Checks: every response against the references of the design
	// states in its window.
	refs, err := serveReferences(ctx, d0, hs.log, shapes, par)
	if err != nil {
		return nil, err
	}
	var breakdowns []serve.TimingBreakdown
	for i, calls := range [][]call{cold, base, sat} {
		for _, c := range calls {
			o.attempted++
			if c.status != http.StatusOK {
				o.failed++
				continue
			}
			if c.p.shape < 0 {
				continue
			}
			var r served
			if err := json.Unmarshal(c.body, &r); err != nil {
				o.mismatch("serve request %d: bad response: %v", c.id, err)
				continue
			}
			if i > 0 {
				breakdowns = append(breakdowns, r.Timing)
			}
			got := make([]int64, len(r.Report.Paths))
			for j, p := range r.Report.Paths {
				got[j] = p.SlackPs
			}
			slices.Sort(got)
			if !matchesSomeState(refs, shapes[c.p.shape], got, c.lo, min(c.hi, len(hs.log))) {
				o.mismatch("serve request %d (%s): slacks match no design state in [%d, %d]", c.id, queryName(shapes[c.p.shape]), c.lo, c.hi)
			}
		}
	}

	if rec != nil {
		serveLayers(o.layer, breakdowns, before, after, hs.id, queries, lats, editMs, maxLag)
		if err := replayIncr(rec, d0, hs.log, o.layer); err != nil {
			return nil, err
		}
		if err := decompose(ctx, cfg, in, shapes, o); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}
	return o, nil
}

func getJSON(hs *harness, path string, v any) error {
	status, body := hs.do(http.MethodGet, path, nil)
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}

// serveReferences computes the reference slack vectors of every design
// state: state 0 with AlgoPairwise on the loaded design, state i with
// a NoCache LCA run after the first i acknowledged edits.
func serveReferences(ctx context.Context, d0 *model.Design, log []cppr.ArcEdit, shapes []cppr.Query, par cppr.Parallelism) ([]*refSet, error) {
	t := cppr.NewTimer(d0)
	t.SetParallelism(par)
	keys := keysFor(shapes, serveCorners)
	rs, err := references(ctx, t, cppr.AlgoPairwise, false, keys, serveKMax)
	if err != nil {
		return nil, err
	}
	out := []*refSet{rs}
	for _, e := range log {
		if err := t.SetArcDelay(e.From, e.To, e.Delay); err != nil {
			return nil, err
		}
		rs, err := references(ctx, t, cppr.AlgoLCA, true, keys, serveKMax)
		if err != nil {
			return nil, err
		}
		out = append(out, rs)
	}
	return out, nil
}

// matchesSomeState reports whether got equals the reference of q in
// any design state lo..hi.
func matchesSomeState(refs []*refSet, q cppr.Query, got []int64, lo, hi int) bool {
	for s := lo; s <= hi && s < len(refs); s++ {
		want, err := refs[s].expected(q)
		if err == nil && checkSlacks(got, want) == "" {
			return true
		}
	}
	return false
}

// serveLayers records the service layer metrics of the base-rate phase.
func serveLayers(l map[string]float64, bd []serve.TimingBreakdown, before, after serve.ServerStats, id string, offered int, lats, editMs []float64, maxLag time.Duration) {
	var adm, wait, exec, over []float64
	var batch, coalesced float64
	for _, b := range bd {
		adm = append(adm, float64(b.AdmissionUs))
		wait = append(wait, float64(b.BatchWaitUs))
		exec = append(exec, float64(b.ExecUs))
		over = append(over, float64(b.TotalUs-b.AdmissionUs-b.BatchWaitUs-b.ExecUs))
		batch += float64(b.BatchSize)
		if b.Coalesced {
			coalesced++
		}
	}
	l["serve.admission_us.p50"] = percentile(adm, 50)
	l["serve.admission_us.p99"] = percentile(adm, 99)
	l["serve.batch_wait_us.p50"] = percentile(wait, 50)
	l["serve.batch_wait_us.p99"] = percentile(wait, 99)
	l["serve.exec_us.p50"] = percentile(exec, 50)
	l["serve.exec_us.p99"] = percentile(exec, 99)
	l["serve.overhead_us.p50"] = percentile(over, 50)
	l["serve.batch_size_mean"] = ratio(batch, float64(len(bd)))
	admitted := float64(after.Admitted - before.Admitted)
	shed := float64(after.Shed - before.Shed)
	l["serve.coalesced"] = coalesced
	l["serve.admitted"] = admitted
	l["serve.coalesced_ratio"] = ratio(coalesced, admitted)
	l["serve.shed"] = shed
	l["serve.offered"] = float64(offered)
	l["serve.shed_ratio"] = ratio(shed, float64(offered))
	l["serve.latency_ms.p90"] = percentile(lats, 90)
	l["serve.latency_ms.p99"] = percentile(lats, 99)
	l["serve.edit_ms.p50"] = percentile(editMs, 50)
	l["serve.generator_lag_ms.max"] = float64(maxLag) / 1e6
	statsDelta(l, before.PerDesign[id], after.PerDesign[id])
}
