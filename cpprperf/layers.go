package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"fastcppr/cppr"
	"fastcppr/internal/core"
	"fastcppr/internal/lca"
	"fastcppr/internal/sta"
	"fastcppr/model"
)

// decompose is the traced run's layer pass over one design: it calls
// each layer's public entry point directly, with a span around every
// call, on the same inputs and query set the workload uses, and
// records the layer metrics in o.layer. It also runs the query set at
// one thread and at nproc threads on fresh timers and requires
// byte-identical reports, so "did less work" (sched.work_ratio) and
// "ran on more cores" (sched.speedup) are separate numbers.
//
// The direct calls must agree with the timer: the per-corner
// core.Engine.TopPaths slacks, merged, must equal the slacks of the
// timer's report for every query.
func decompose(ctx context.Context, cfg runConfig, in *inputs, queries []cppr.Query, o *outcome) error {
	rec := cfg.rec
	root := rec.begin("layers", 0, 0)
	defer rec.end(root)
	par := allWorkers(cfg.workers)

	// Set-up layers: tau, sdc, the timer build and ApplySDC.
	t, _, err := in.setup(rec, root, flatTimer, "cppr.new_timer", par)
	if err != nil {
		return err
	}
	d := t.Design()
	sp := rec.begin("model.partition_blocks", root, 0)
	model.PartitionBlocks(d)
	rec.end(sp)

	// LCA: the base tree plus one derived tree per extra corner, as the
	// timer builds them.
	sp = rec.begin("lca.new", root, 0)
	views := []*model.Design{d}
	trees := []*lca.Tree{lca.New(d)}
	for c := 1; c < d.NumCorners(); c++ {
		v := d.View(model.Corner(c))
		views = append(views, v)
		trees = append(trees, trees[0].Derive(v))
	}
	rec.end(sp)

	for _, v := range views {
		sp = rec.begin("sta.propagate", root, 0)
		sta.Propagate(v)
		rec.end(sp)
	}

	// Core: one engine per corner, TopPaths per (query, corner).
	engines := []*core.Engine{core.NewEngineWithTree(d, trees[0])}
	for c := 1; c < len(views); c++ {
		engines = append(engines, engines[0].Sibling(views[c], trees[c]))
	}
	coreSlacks := make([][]int64, len(queries))
	for qi, q := range queries {
		for _, c := range cornersOf(q, len(views)) {
			crpr := model.CRPRSamePin
			if q.CRPR == cppr.CRPRSameTransition {
				crpr = model.CRPRSameTransition
			}
			sp = rec.begin("core.top_paths", root, int64(qi+1))
			res, err := engines[c].TopPaths(ctx, core.Options{K: q.K, Mode: q.Mode, Threads: cfg.workers, CRPR: crpr})
			rec.end(sp)
			if err != nil {
				return fmt.Errorf("core.TopPaths: %w", err)
			}
			for _, p := range res.Paths {
				coreSlacks[qi] = append(coreSlacks[qi], p.Slack.Ps())
			}
		}
		slices.Sort(coreSlacks[qi])
		coreSlacks[qi] = coreSlacks[qi][:min(q.K, len(coreSlacks[qi]))]
	}

	// The query layer at nproc threads, then at one thread, each on a
	// fresh timer.
	tN, _, err := in.setup(nil, 0, flatTimer, "", par)
	if err != nil {
		return err
	}
	repsN, bytesN, runN, err := runQuerySet(ctx, rec, root, "cppr.run", tN, queries)
	if err != nil {
		return err
	}
	t1, _, err := in.setup(nil, 0, flatTimer, "", cppr.Parallelism{Workers: 1, QueryThreads: 1})
	if err != nil {
		return err
	}
	reps1, bytes1, run1, err := runQuerySet(ctx, rec, root, "sched.run.t1", t1, queries)
	if err != nil {
		return err
	}
	var st, cand1 core.Stats
	for i, q := range queries {
		o.attempted += 2
		if msg := checkSlacks(slacks(repsN[i]), coreSlacks[i]); msg != "" {
			o.mismatch("layers: %s: core.TopPaths disagrees with the timer: %s", queryName(q), msg)
		}
		if string(bytesN[i]) != string(bytes1[i]) {
			o.mismatch("layers: %s: report at %d threads differs from 1 thread", queryName(q), cfg.workers)
		}
		s := repsN[i].Stats
		st.Jobs += s.Jobs
		st.Candidates += s.Candidates
		st.Kept += s.Kept
		st.Reconstructed += s.Reconstructed
		cand1.Candidates += reps1[i].Stats.Candidates
	}
	for i, q := range queries {
		sp = rec.begin("cppr.write_json", root, int64(i+1))
		err := cppr.WriteJSON(io.Discard, tN.Design(), &repsN[i], q.Mode, q.K)
		rec.end(sp)
		if err != nil {
			return err
		}
	}

	l := o.layer
	// Set-up layers report the mean per call over the whole traced run
	// (the workload's own set-ups included); the rest report totals of
	// this pass.
	l["tau.read_s"] = rec.mean("tau.read")
	l["sdc.parse_s"] = rec.mean("sdc.parse")
	l["cppr.new_timer_s"] = rec.mean("cppr.new_timer")
	l["cppr.apply_sdc_s"] = rec.mean("cppr.apply_sdc")
	l["model.partition_blocks_s"], _ = rec.total("model.partition_blocks")
	l["lca.new_s"], _ = rec.total("lca.new")
	l["sta.propagate_s"], _ = rec.total("sta.propagate")
	l["core.top_paths_s"], _ = rec.total("core.top_paths")
	l["core.jobs"] = float64(st.Jobs)
	l["core.candidates"] = float64(st.Candidates)
	l["core.kept"] = float64(st.Kept)
	l["core.reconstructed"] = float64(st.Reconstructed)
	l["cppr.run_s"] = runN
	l["cppr.merge_s"] = runN - l["core.top_paths_s"]
	l["cppr.write_json_s"], _ = rec.total("cppr.write_json")
	l["sched.run_s.tN"] = runN
	l["sched.run_s.t1"] = run1
	l["sched.candidates.tN"] = float64(st.Candidates)
	l["sched.candidates.t1"] = float64(cand1.Candidates)
	l["sched.work_ratio"] = ratio(float64(st.Candidates), float64(cand1.Candidates))
	l["sched.speedup"] = ratio(run1, runN)
	return nil
}

// runQuerySet runs queries in order on t with a span named name around
// each Run, and returns the reports, their encodings and the summed
// Run time in seconds.
func runQuerySet(ctx context.Context, rec *recorder, parent int, name string, t *cppr.Timer, queries []cppr.Query) ([]cppr.Report, [][]byte, float64, error) {
	reps := make([]cppr.Report, len(queries))
	enc := make([][]byte, len(queries))
	var total time.Duration
	for i, q := range queries {
		sp := rec.begin(name, parent, int64(i+1))
		start := time.Now()
		rep, err := t.Run(ctx, q)
		total += time.Since(start)
		rec.end(sp)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: %w", queryName(q), err)
		}
		reps[i] = rep
		enc[i] = reportBytes(t.Design(), rep, q)
	}
	return reps, enc, total.Seconds(), nil
}

// statsDelta records the timer counters' change over a phase as layer
// metrics, every ratio with its numerator and denominator.
func statsDelta(l map[string]float64, before, after cppr.TimerStats) {
	hits := float64(after.JobCacheHits - before.JobCacheHits)
	misses := float64(after.JobCacheMisses - before.JobCacheMisses)
	patched := float64(after.JobCachePatched - before.JobCachePatched)
	l["core.job_cache_hits"] = hits
	l["core.job_cache_lookups"] = hits + misses
	l["core.job_cache_hit_ratio"] = ratio(hits, hits+misses)
	l["core.job_cache_patched"] = patched
	l["core.job_cache_misses"] = misses
	l["core.job_cache_patched_ratio"] = ratio(patched, misses)
	l["core.job_cache_invalidated"] = float64(after.JobCacheInvalidated - before.JobCacheInvalidated)
	mh := float64(after.QueryMemoHits - before.QueryMemoHits)
	mm := float64(after.QueryMemoMisses - before.QueryMemoMisses)
	l["cppr.memo_hits"] = mh
	l["cppr.memo_lookups"] = mh + mm
	l["cppr.memo_hit_ratio"] = ratio(mh, mh+mm)
	l["cppr.cone_skips"] = float64(after.ConeSkips - before.ConeSkips)
}

// replayIncr replays committed edits on a private sta.Incr over d and
// records the incremental arrival engine's time and pins recomputed
// per edit.
func replayIncr(rec *recorder, d *model.Design, edits []cppr.ArcEdit, l map[string]float64) error {
	if len(edits) == 0 {
		return nil
	}
	x := sta.NewIncr(d.CloneWithArcs()) // Incr edits its design in place
	before := x.Recomputed()
	for i, e := range edits {
		ai := d.ArcBetween(e.From, e.To)
		if ai < 0 {
			return fmt.Errorf("replay: no arc for edit %d", i)
		}
		sp := rec.begin("sta.incr_update", 0, int64(i+1))
		err := x.SetArcDelay(ai, e.Delay)
		x.Flush()
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("replay edit %d: %w", i, err)
		}
	}
	l["sta.incr_update_s"] = rec.mean("sta.incr_update")
	l["sta.incr_recomputed"] = float64(x.Recomputed()-before) / float64(len(edits))
	return nil
}
