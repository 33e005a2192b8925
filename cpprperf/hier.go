package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fastcppr/cppr"
	"fastcppr/internal/hier"
	"fastcppr/model"
)

// hier_eco: hierarchical timing by block macromodel extraction. Two
// designs go through NewHierTimer: a scaled-up repeated-block array,
// whose blocks are extracted once and reused, and leon2, whose blocks
// are all kept flat. A closed edit → re-query loop then runs on the
// blocked design, mixing block-interior edits (which re-extract one
// block) with edits on kept arcs. It is the only workload where
// internal/hier does the work, and it covers both sides of the
// keep-flat decision.
const (
	hierInstances     = 96
	hierCorners       = 2
	hierKeepFlatScale = 0.01
	// hierFreshEvery is how often a step is also checked against a
	// fresh flat timer (every step is checked against the lockstep one).
	hierFreshEvery = 100
	// hierRateWindow is the step count of one window of the step rate,
	// whose median over the run is ops_per_s.
	hierRateWindow = 100
)

// hierTop1 is the loop's re-query: the worst setup path over every
// corner. Top-1 is exact under hierarchy; deeper lists may collapse
// path multiplicity.
var hierTop1 = cppr.Query{K: 1, Mode: model.Setup, Corners: cppr.CornerAll, CRPR: cppr.CRPRSamePin}

// hierColdSet runs the cold query set on a hierarchical timer: the
// endpoint sweep per corner and mode, and the top-1 per mode over
// every corner. It returns the sweeps and top-1 slacks for checking.
func hierColdSet(ctx context.Context, t *cppr.Timer, corners int) ([][]cppr.EndpointSlack, []int64, error) {
	var sweeps [][]cppr.EndpointSlack
	var tops []int64
	for c := 0; c < corners; c++ {
		for _, mode := range model.Modes {
			s, err := t.PostCPPRSlacksCtx(ctx, cppr.Query{K: 1, Mode: mode, Corners: cppr.CornerBit(model.Corner(c)), CRPR: cppr.CRPRSamePin})
			if err != nil {
				return nil, nil, err
			}
			sweeps = append(sweeps, s)
		}
	}
	for _, mode := range model.Modes {
		q := hierTop1
		q.Mode = mode
		rep, err := t.Run(ctx, q)
		if err != nil {
			return nil, nil, err
		}
		tops = append(tops, slacks(rep)...)
	}
	return sweeps, tops, nil
}

// checkHierCold compares a hierarchical timer's cold set with a flat
// timer built on its FlatDesign.
func checkHierCold(ctx context.Context, o *outcome, name string, t *cppr.Timer, corners int, sweeps [][]cppr.EndpointSlack, tops []int64, par cppr.Parallelism) error {
	flat := cppr.NewTimer(t.FlatDesign())
	flat.SetParallelism(par)
	wantSweeps, wantTops, err := hierColdSet(ctx, flat, corners)
	if err != nil {
		return err
	}
	for i := range sweeps {
		o.attempted++
		if !sameEndpoints(sweeps[i], wantSweeps[i]) {
			o.mismatch("hier %s: endpoint sweep %d differs from the flat timer", name, i)
		}
	}
	o.attempted++
	if msg := checkSlacks(tops, wantTops); msg != "" {
		o.mismatch("hier %s: top-1 vs flat timer: %s", name, msg)
	}
	return nil
}

func sameEndpoints(a, b []cppr.EndpointSlack) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runHier(ctx context.Context, cfg runConfig) (*outcome, error) {
	blocked, err := blockedInputs(hierInstances, hierCorners, signoffSDC)
	if err != nil {
		return nil, err
	}
	keepFlat, err := leon2Inputs(cfg.seed, hierKeepFlatScale, 0, 1, "")
	if err != nil {
		return nil, err
	}
	par := allWorkers(cfg.workers)
	o := newOutcome()
	rec := cfg.rec

	// hierSetup sets up both hierarchical timers and runs the cold set
	// on each. The first pair warms the process up untimed, is checked
	// against flat timers, and its blocked timer runs the loop; later
	// pairs are timed side measurements spread over the run and must
	// reproduce the first pair's results.
	var setups, colds []float64
	var firstCold []int64
	var firstSweeps [][]cppr.EndpointSlack
	hierSetup := func() (bt, kt *cppr.Timer, built cppr.TimerStats, err error) {
		start := time.Now()
		bt, built, err = blocked.setup(rec, 0, hierTimer, "hier.elaborate.blocked", par)
		if err != nil {
			return nil, nil, built, err
		}
		kt, _, err = keepFlat.setup(rec, 0, hierTimer, "hier.elaborate.keepflat", par)
		if err != nil {
			return nil, nil, built, err
		}
		setup := time.Since(start).Seconds()
		start = time.Now()
		bSweeps, bTops, err := hierColdSet(ctx, bt, hierCorners)
		if err != nil {
			return nil, nil, built, err
		}
		kSweeps, kTops, err := hierColdSet(ctx, kt, 1)
		if err != nil {
			return nil, nil, built, err
		}
		if firstSweeps != nil {
			setups = append(setups, setup)
			colds = append(colds, time.Since(start).Seconds())
		}
		sweeps, tops := append(bSweeps, kSweeps...), append(bTops, kTops...)
		o.attempted += len(sweeps) + 1
		if firstSweeps == nil {
			if err := checkHierCold(ctx, o, "blocked", bt, hierCorners, bSweeps, bTops, par); err != nil {
				return nil, nil, built, err
			}
			if err := checkHierCold(ctx, o, "keepflat", kt, 1, kSweeps, kTops, par); err != nil {
				return nil, nil, built, err
			}
			firstSweeps, firstCold = sweeps, tops
			return bt, kt, built, nil
		}
		for i := range sweeps {
			if !sameEndpoints(sweeps[i], firstSweeps[i]) {
				o.mismatch("hier cold sweep %d differs between set-ups", i)
			}
		}
		if msg := checkSlacks(tops, firstCold); msg != "" {
			o.mismatch("hier cold top-1 differs between set-ups: %s", msg)
		}
		return bt, kt, built, nil
	}
	bt, kt, built, err := hierSetup()
	if err != nil {
		return nil, err
	}
	kst := kt.Stats()
	o.note("keep-flat leon2: %d block models extracted, %d reused; every other block kept flat", kst.MacroExtracted, kst.MacroReused)

	// The edit loop on the blocked design. Edits are addressed in the
	// flat design; half land inside blocks (comb -> comb arcs).
	flat0 := bt.FlatDesign()
	var interior, kept []int32
	for ai, a := range flat0.Arcs {
		switch {
		case flat0.IsClockPin(a.From):
		case flat0.Pins[a.From].Kind == model.Comb && flat0.Pins[a.To].Kind == model.Comb:
			interior = append(interior, int32(ai))
		default:
			kept = append(kept, int32(ai))
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	before := bt.Stats()
	var lats, rates []float64
	var edits []cppr.ArcEdit
	var tops []int64
	var measured, window time.Duration
	for step := 0; step < ecoMinSteps || measured < cfg.seconds; step++ {
		if len(setups) < setupReps && measured >= time.Duration(len(setups))*cfg.seconds/setupReps {
			if _, _, _, err := hierSetup(); err != nil {
				return nil, err
			}
		}
		pool := kept
		if rng.Intn(2) == 0 {
			pool = interior
		}
		ai := pool[rng.Intn(len(pool))]
		fd := bt.FlatDesign()
		a := fd.Arcs[ai]
		e := cppr.ArcEdit{Corner: model.BaseCorner, From: a.From, To: a.To, Delay: scaled(fd.ArcDelay(model.BaseCorner, ai), 0.8+0.4*rng.Float64())}
		ss := rec.begin("hier.step", 0, int64(step+1))
		sp := rec.begin("cppr.set_arc_delay", ss, int64(step+1))
		start := time.Now()
		err := bt.SetArcDelay(e.From, e.To, e.Delay)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("step %d: SetArcDelay: %w", step, err)
		}
		sp = rec.begin("cppr.requery", ss, int64(step+1))
		rep, err := bt.Run(ctx, hierTop1)
		lat := time.Since(start)
		rec.end(sp)
		rec.end(ss)
		o.attempted++
		if err != nil {
			return nil, fmt.Errorf("step %d: requery: %w", step, err)
		}
		measured += lat
		window += lat
		if step%hierRateWindow == hierRateWindow-1 {
			rates = append(rates, hierRateWindow/window.Seconds())
			window = 0
		}
		lats = append(lats, float64(lat)/1e6)
		edits = append(edits, e)
		tops = append(tops, slacks(rep)[0])
	}
	after := bt.Stats()
	o.e2e["live_heap_mb"] = liveHeapMB()
	o.e2e["setup_s"] = median(setups)
	o.e2e["cold_report_s"] = median(colds)
	o.e2e["op_p50_ms"] = percentile(lats, 50)
	o.e2e["op_p90_ms"] = percentile(lats, 90)
	o.e2e["ops_per_s"] = median(rates)
	o.opMeanS = mean(lats) / 1e3
	o.note("op = edit→requery on the blocked design (edit_requery_p50_ms/p90_ms), %d steps; ops_per_s is the median of %d windows", len(lats), len(rates))

	// Checks: replay the edits on a flat timer in lockstep and compare
	// every step's top-1; every hierFreshEvery steps, and at the end,
	// also against a fresh flat timer with caches bypassed. The final
	// state's endpoint sweeps must equal the flat ones.
	flat := cppr.NewTimer(flat0)
	flat.SetParallelism(par)
	for i, e := range edits {
		if err := flat.SetArcDelay(e.From, e.To, e.Delay); err != nil {
			return nil, err
		}
		rep, err := flat.Run(ctx, hierTop1)
		if err != nil {
			return nil, err
		}
		if msg := checkSlacks([]int64{tops[i]}, slacks(rep)); msg != "" {
			o.mismatch("hier step %d: top-1 vs lockstep flat timer: %s", i, msg)
		}
		if i%hierFreshEvery == hierFreshEvery-1 || i == len(edits)-1 {
			fresh := cppr.NewTimer(flat.Design())
			fresh.SetParallelism(par)
			q := hierTop1
			q.NoCache = true
			frep, err := fresh.Run(ctx, q)
			if err != nil {
				return nil, err
			}
			o.attempted++
			if msg := checkSlacks([]int64{tops[i]}, slacks(frep)); msg != "" {
				o.mismatch("hier step %d: top-1 vs fresh flat timer: %s", i, msg)
			}
		}
	}
	sweeps, finalTops, err := hierColdSet(ctx, bt, hierCorners)
	if err != nil {
		return nil, err
	}
	if err := checkHierCold(ctx, o, "blocked final state", bt, hierCorners, sweeps, finalTops, par); err != nil {
		return nil, err
	}

	if rec != nil {
		l := o.layer
		statsDelta(l, before, after)
		l["hier.elaborate_s.blocked"] = rec.mean("hier.elaborate.blocked")
		l["hier.elaborate_s.keepflat"] = rec.mean("hier.elaborate.keepflat")
		l["hier.extracted"] = float64(built.MacroExtracted)
		l["hier.reuses"] = float64(built.MacroReused)
		l["hier.reextracted"] = float64(after.MacroReextracted - before.MacroReextracted)
		l["hier.reduced_arcs"] = float64(bt.Design().NumArcs())
		l["hier.flat_arcs"] = float64(bt.FlatDesign().NumArcs())
		l["hier.arc_ratio"] = ratio(l["hier.reduced_arcs"], l["hier.flat_arcs"])
		l["cppr.set_arc_delay_s"] = rec.mean("cppr.set_arc_delay")
		l["cppr.requery_s"] = rec.mean("cppr.requery")
		extractAll(rec, flat0, l)
		if err := replayIncr(rec, flat0, edits, l); err != nil {
			return nil, err
		}
		if err := decompose(ctx, cfg, blocked, []cppr.Query{hierTop1}, o); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}
	return o, nil
}

// extractAll times hier.ExtractCorner on every block of d at every
// corner — elaboration's extraction work without signature reuse.
func extractAll(rec *recorder, d *model.Design, l map[string]float64) {
	bl := model.PartitionBlocks(d)
	for b := 0; b < bl.NumBlocks(); b++ {
		for c := 0; c < d.NumCorners(); c++ {
			sp := rec.begin("hier.extract_corner", 0, int64(b+1))
			hier.ExtractCorner(d, bl, b, model.Corner(c))
			rec.end(sp)
		}
	}
	l["hier.extract_corner_s"] = rec.mean("hier.extract_corner")
}
