package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"fastcppr/cppr"
	"fastcppr/model"
)

// eco_whatif: an optimisation loop's edit → re-report. leon2 at the
// laptop scale (0.02) with 4 corners, run as a closed ECO loop: each
// step scores candidate single-arc edits with Timer.WhatIf, commits the
// best with SetArcDelay and re-queries. Every eighth step is a
// useful-skew step whose candidates are clock-tree arcs; committing one
// rebuilds the clock-tree state. Writes sit beside reads here, so the
// journal, job-cache patching, the query memo, cone skips and forks do
// the work, and full kernel runs are rare.
const (
	ecoScale      = 0.02
	ecoCorners    = 4
	ecoCandidates = 6 // data-arc candidates per step
	ecoSkewCands  = 1 // clock-arc candidates per useful-skew step
	ecoSkewEvery  = 8
	ecoMinSteps   = 100 // so that 10 samples lie beyond p90
	// setupReps is the number of timed set-ups (and cold reports) per
	// run. One more runs first, untimed, to warm the process up.
	setupReps = 7
)

// ecoQuery is the loop's report: worst 100 setup paths over every
// corner.
var ecoQuery = cppr.Query{K: 100, Mode: model.Setup, Corners: cppr.CornerAll, CRPR: cppr.CRPRSamePin}

func runECO(ctx context.Context, cfg runConfig) (*outcome, error) {
	in, err := leon2Inputs(cfg.seed, ecoScale, 0, ecoCorners, signoffSDC)
	if err != nil {
		return nil, err
	}
	par := allWorkers(cfg.workers)
	o := newOutcome()
	rec := cfg.rec
	q := ecoQuery

	// coldSetup sets up a fresh timer and runs the cold report on it:
	// the loop's query in both modes. The first set-up warms the
	// process up untimed and its timer runs the loop; the timed ones are
	// side measurements spread over the run, so one slow second of the
	// host cannot move the medians. Every cold report must equal the
	// first, which is checked against pairwise.
	coldSet := []cppr.Query{q, q}
	coldSet[1].Mode = model.Hold
	var setups, colds []float64
	var firstCold [][]byte
	coldSetup := func() (*cppr.Timer, []cppr.Report, error) {
		start := time.Now()
		t, _, err := in.setup(rec, 0, flatTimer, "cppr.new_timer", par)
		setup := time.Since(start).Seconds()
		if err != nil {
			return nil, nil, err
		}
		reps, enc, cold, err := runQuerySet(ctx, nil, 0, "", t, coldSet)
		if err != nil {
			return nil, nil, err
		}
		if firstCold != nil {
			setups = append(setups, setup)
			colds = append(colds, cold)
		}
		for i, cq := range coldSet {
			o.attempted++
			if firstCold != nil && string(enc[i]) != string(firstCold[i]) {
				o.mismatch("eco cold report %s differs between set-ups", queryName(cq))
			}
		}
		if firstCold == nil {
			firstCold = enc
		}
		return t, reps, nil
	}
	t, coldReps, err := coldSetup()
	if err != nil {
		return nil, err
	}
	ref, err := references(ctx, t, cppr.AlgoPairwise, false, keysFor(coldSet, ecoCorners), q.K)
	if err != nil {
		return nil, err
	}
	for i, cq := range coldSet {
		o.attempted++
		if msg := checkReport(ref, cq, coldReps[i]); msg != "" {
			o.mismatch("eco cold report %s vs pairwise: %s", queryName(cq), msg)
		}
	}
	rep := coldReps[0]

	initial := t.Design()
	clockArcs := clockTreeArcs(initial)
	rng := rand.New(rand.NewSource(cfg.seed))
	sample := rand.New(rand.NewSource(cfg.seed + 1))
	before := t.Stats()
	var lats, rates []float64
	var committed []cppr.ArcEdit
	var whatifTime, measured, winTime time.Duration
	candidates, winCands := 0, 0
	for step := 0; step < ecoMinSteps || measured < cfg.seconds; step++ {
		if len(setups) < setupReps && measured >= time.Duration(len(setups))*cfg.seconds/setupReps {
			if _, _, err := coldSetup(); err != nil {
				return nil, err
			}
		}
		skew := step%ecoSkewEvery == ecoSkewEvery-1
		d := t.Design()
		var cands []cppr.EditSet
		if skew {
			cands = skewCandidates(rng, d, clockArcs, ecoSkewCands)
		} else {
			cands = dataCandidates(rng, d, rep, ecoCandidates)
		}
		ss := rec.begin("eco.step", 0, int64(step+1))
		if rec != nil {
			// Forks are internal to WhatIf; one explicit fork per step
			// times the layer on its own.
			sp := rec.begin("cppr.fork", ss, int64(step+1))
			t.Fork()
			rec.end(sp)
		}
		sp := rec.begin("cppr.whatif", ss, int64(step+1))
		start := time.Now()
		res, err := t.WhatIf(ctx, cands, []cppr.Query{q})
		wd := time.Since(start)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("step %d: WhatIf: %w", step, err)
		}
		whatifTime += wd
		candidates += len(cands)
		// The candidate rate is a median over windows of ecoSkewEvery
		// steps, each holding one useful-skew step.
		winTime += wd
		winCands += len(cands)
		if skew {
			rates = append(rates, float64(winCands)/winTime.Seconds())
			winTime, winCands = 0, 0
		}
		best := -1
		for i, c := range res.Candidates {
			o.attempted++
			if c.Err != nil {
				o.failed++
				continue
			}
			if best < 0 || (c.DeltaValid[0] && c.Delta[0] > res.Candidates[best].Delta[0]) {
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("step %d: every candidate failed", step)
		}
		e := cands[best][0]

		sp = rec.begin("cppr.set_arc_delay", ss, int64(step+1))
		start = time.Now()
		err = t.SetArcDelay(e.From, e.To, e.Delay)
		rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("step %d: SetArcDelay: %w", step, err)
		}
		sp = rec.begin("cppr.requery", ss, int64(step+1))
		rep, err = t.Run(ctx, q)
		lat := time.Since(start)
		rec.end(sp)
		rec.end(ss)
		o.attempted++
		if err != nil {
			return nil, fmt.Errorf("step %d: requery: %w", step, err)
		}
		measured += wd + lat
		lats = append(lats, float64(lat)/1e6)
		committed = append(committed, e)

		// Checks, outside the timed region. The re-query report must
		// equal a fresh NoCache timer's on the edited design; that costs
		// a cold query, so it runs on every useful-skew step and a
		// seeded quarter of the others (the final state is checked
		// below). A seeded tenth of the steps also check one candidate
		// against a fresh timer with the candidate applied.
		if skew || sample.Intn(4) == 0 {
			want, err := freshNoCache(ctx, t.Design(), nil, q, par)
			if err != nil {
				return nil, err
			}
			o.attempted++
			if string(reportBytes(t.Design(), rep, q)) != string(want) {
				o.mismatch("eco step %d: warm re-query differs from a fresh NoCache timer", step)
			}
		}
		if sample.Intn(10) == 0 {
			ci := sample.Intn(len(cands))
			if c := res.Candidates[ci]; c.Err == nil {
				want, err := freshNoCache(ctx, d, cands[ci], q, par)
				if err != nil {
					return nil, err
				}
				o.attempted++
				if string(reportBytes(d, c.Reports[0], q)) != string(want) {
					o.mismatch("eco step %d: what-if candidate %d differs from a fresh timer", step, ci)
				}
			}
		}
	}
	after := t.Stats()
	o.e2e["live_heap_mb"] = liveHeapMB()
	o.e2e["setup_s"] = median(setups)
	o.e2e["cold_report_s"] = median(colds)
	o.e2e["op_p50_ms"] = percentile(lats, 50)
	o.e2e["op_p90_ms"] = percentile(lats, 90)
	o.e2e["ops_per_s"] = median(rates)
	o.opMeanS = mean(lats) / 1e3
	o.note("op = edit→requery (edit_requery_p50_ms/p90_ms), %d steps; ops_per_s = whatif_candidates_per_s, median of %d windows, %d candidates", len(lats), len(rates), candidates)

	// The final state against a fresh NoCache timer and pairwise.
	want, err := freshNoCache(ctx, t.Design(), nil, q, par)
	if err != nil {
		return nil, err
	}
	o.attempted++
	if string(reportBytes(t.Design(), rep, q)) != string(want) {
		o.mismatch("eco final state differs from a fresh NoCache timer")
	}
	ref, err = references(ctx, t, cppr.AlgoPairwise, false, keysFor([]cppr.Query{q}, ecoCorners), q.K)
	if err != nil {
		return nil, err
	}
	o.attempted++
	if msg := checkReport(ref, q, rep); msg != "" {
		o.mismatch("eco final state vs pairwise: %s", msg)
	}

	if rec != nil {
		l := o.layer
		statsDelta(l, before, after)
		l["cppr.set_arc_delay_s"] = rec.mean("cppr.set_arc_delay")
		l["cppr.requery_s"] = rec.mean("cppr.requery")
		l["cppr.fork_s"] = rec.mean("cppr.fork")
		l["cppr.whatif_s_per_candidate"] = ratio(whatifTime.Seconds(), float64(candidates))
		if err := replayIncr(rec, initial, committed, l); err != nil {
			return nil, err
		}
		if err := decompose(ctx, cfg, in, []cppr.Query{q}, o); err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
	}
	return o, nil
}

// clockTreeArcs lists the arcs between clock-tree pins.
func clockTreeArcs(d *model.Design) []int32 {
	var out []int32
	for ai, a := range d.Arcs {
		if d.IsClockPin(a.From) && d.IsClockPin(a.To) {
			out = append(out, int32(ai))
		}
	}
	return out
}

// scaled returns w with both bounds scaled by f (so early <= late
// still holds).
func scaled(w model.Window, f float64) model.Window {
	return model.Window{
		Early: model.Time(math.Round(float64(w.Early) * f)),
		Late:  model.Time(math.Round(float64(w.Late) * f)),
	}
}

// dataCandidates draws n single-arc edits on data arcs of the current
// report's paths — the arcs an optimiser would resize — each scaling
// the arc's base-corner delay by a factor in [0.6, 1.1).
func dataCandidates(rng *rand.Rand, d *model.Design, rep cppr.Report, n int) []cppr.EditSet {
	out := make([]cppr.EditSet, 0, n)
	for len(out) < n {
		p := rep.Paths[rng.Intn(len(rep.Paths))]
		j := rng.Intn(len(p.Pins) - 1)
		from, to := p.Pins[j], p.Pins[j+1]
		ai := d.ArcBetween(from, to)
		if ai < 0 || d.IsClockPin(from) {
			continue
		}
		w := scaled(d.ArcDelay(model.BaseCorner, ai), 0.6+0.5*rng.Float64())
		out = append(out, cppr.EditSet{{Corner: model.BaseCorner, From: from, To: to, Delay: w}})
	}
	return out
}

// skewCandidates draws n single-arc edits on clock-tree arcs, each
// scaling the delay by a factor in [0.85, 1.15).
func skewCandidates(rng *rand.Rand, d *model.Design, arcs []int32, n int) []cppr.EditSet {
	out := make([]cppr.EditSet, n)
	for i := range out {
		ai := arcs[rng.Intn(len(arcs))]
		a := d.Arcs[ai]
		w := scaled(d.ArcDelay(model.BaseCorner, ai), 0.85+0.3*rng.Float64())
		out[i] = cppr.EditSet{{Corner: model.BaseCorner, From: a.From, To: a.To, Delay: w}}
	}
	return out
}
