package main

import (
	"context"
	"fmt"
	"time"

	"fastcppr/cppr"
	"fastcppr/model"
)

// signoff_cold: a signoff engineer's design → report. leon2 at 0.025
// scale (about 70k pins; larger designs need more memory than the
// benchmark host should spend) with inverting clock cells, 4 derated
// corners and an SDC with uncertainty and derates. Each pass builds a
// fresh timer and runs a fixed set of distinct queries in a closed
// loop, so every cache is cold: the sparse kernel, the engine, the LCA
// and the corner merge do the work.
const (
	signoffScale      = 0.025
	signoffInvertFrac = 0.1
	signoffCorners    = 4
	signoffKMax       = 1000
)

// signoffQueries is the fixed query set: setup/hold × K ∈ {1,100,1000}
// × base/all corners under same_pin credit, plus a same_transition
// subset on the base corner. There are 15 queries: with an odd count
// the op percentiles (p50 at 7.5/15, p90 at 13.5/15 of the sorted
// samples) fall in the middle of one query's samples instead of on the
// edge between two queries of different cost.
func signoffQueries() []cppr.Query {
	var qs []cppr.Query
	for _, mode := range model.Modes {
		for _, k := range []int{1, 100, signoffKMax} {
			for _, corners := range []cppr.CornerMask{0, cppr.CornerAll} {
				qs = append(qs, cppr.Query{K: k, Mode: mode, Corners: corners, CRPR: cppr.CRPRSamePin})
			}
		}
	}
	for _, q := range []cppr.Query{{K: 100, Mode: model.Setup}, {K: 1, Mode: model.Hold}, {K: 100, Mode: model.Hold}} {
		q.CRPR = cppr.CRPRSameTransition
		qs = append(qs, q)
	}
	return qs
}

func runSignoff(ctx context.Context, cfg runConfig) (*outcome, error) {
	in, err := leon2Inputs(cfg.seed, signoffScale, signoffInvertFrac, signoffCorners, signoffSDC)
	if err != nil {
		return nil, err
	}
	queries := signoffQueries()
	par := allWorkers(cfg.workers)
	o := newOutcome()
	rec := cfg.rec

	// An unmeasured first pass warms the process (heap growth, pools);
	// its reports are the ones checked against the pairwise reference,
	// and every measured pass must reproduce them byte for byte.
	t, _, err := in.setup(nil, 0, flatTimer, "", par)
	if err != nil {
		return nil, err
	}
	firstReps, first, _, err := runQuerySet(ctx, nil, 0, "", t, queries)
	if err != nil {
		return nil, err
	}

	var setups, colds, rates, lats []float64
	var measured time.Duration
	for pass := 0; pass < 3 || measured < cfg.seconds; pass++ {
		ps := rec.begin("signoff.pass", 0, int64(pass+1))
		start := time.Now()
		var built cppr.TimerStats
		t, built, err = in.setup(rec, ps, flatTimer, "cppr.new_timer", par)
		setup := time.Since(start)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		var cold time.Duration
		reps := make([]cppr.Report, len(queries))
		ok := make([]bool, len(queries))
		for i, q := range queries {
			sp := rec.begin("cppr.run", ps, int64(i+1))
			qs := time.Now()
			rep, err := t.Run(ctx, q)
			d := time.Since(qs)
			rec.end(sp)
			o.attempted++
			if err != nil {
				o.failed++
				continue
			}
			cold += d
			lats = append(lats, float64(d)/1e6)
			reps[i], ok[i] = rep, true
		}
		rec.end(ps)
		statsDelta(o.layer, built, t.Stats())
		measured += setup + cold
		colds = append(colds, cold.Seconds())
		rates = append(rates, float64(len(queries))/cold.Seconds())
		for i, q := range queries {
			if ok[i] && string(reportBytes(t.Design(), reps[i], q)) != string(first[i]) {
				o.mismatch("signoff pass %d: %s differs from the first pass", pass, queryName(q))
			}
		}
	}
	o.e2e["live_heap_mb"] = liveHeapMB()
	o.e2e["setup_s"] = median(setups)
	o.e2e["cold_report_s"] = median(colds)
	o.e2e["op_p50_ms"] = percentile(lats, 50)
	o.e2e["op_p90_ms"] = percentile(lats, 90)
	o.e2e["ops_per_s"] = median(rates)
	o.opMeanS = mean(lats) / 1e3
	o.note("op = one cold query of the %d-query set on a fresh timer; %d passes, %d samples", len(queries), len(colds), len(lats))

	// Cold LCA reports against AlgoPairwise on the same design state.
	ref, err := references(ctx, t, cppr.AlgoPairwise, false, keysFor(queries, signoffCorners), signoffKMax)
	if err != nil {
		return nil, err
	}
	for i, q := range queries {
		o.attempted++
		if msg := checkReport(ref, q, firstReps[i]); msg != "" {
			o.mismatch("signoff %s vs pairwise: %s", queryName(q), msg)
		}
	}

	if rec != nil {
		if err := decompose(ctx, cfg, in, queries, o); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}
	return o, nil
}
