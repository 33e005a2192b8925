package main

import (
	"bytes"
	"context"
	"testing"

	"fastcppr/cppr"
	"fastcppr/gen"
	"fastcppr/model"
)

// mediumTimer is a timer on a design small enough for quick tests but
// with several reported paths per query.
func mediumTimer(t *testing.T) *cppr.Timer {
	t.Helper()
	d, err := gen.Generate(gen.Medium(3))
	if err != nil {
		t.Fatal(err)
	}
	if d, err = withCorners(d, 2); err != nil {
		t.Fatal(err)
	}
	return cppr.NewTimer(d)
}

// TestCorruptedReportExitsNonzero runs the cold-report rule on an
// honest report and on one with a corrupted slack: the honest one
// passes with exit 0, the corrupted one is a mismatch and the command
// would exit nonzero.
func TestCorruptedReportExitsNonzero(t *testing.T) {
	ctx := context.Background()
	tm := mediumTimer(t)
	queries := []cppr.Query{
		{K: 20, Mode: model.Setup, CRPR: cppr.CRPRSamePin},
		{K: 20, Mode: model.Hold, Corners: cppr.CornerAll, CRPR: cppr.CRPRSamePin},
	}
	ref, err := references(ctx, tm, cppr.AlgoPairwise, false, keysFor(queries, 2), 20)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := loadMetricDefs("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, corrupt := range []bool{false, true} {
		o := newOutcome()
		for _, q := range queries {
			rep, err := tm.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if corrupt {
				paths := append([]model.Path(nil), rep.Paths...)
				paths[len(paths)-1].Slack -= model.Ps(1)
				rep.Paths = paths
			}
			o.attempted++
			if msg := checkReport(ref, q, rep); msg != "" {
				o.mismatch("%s: %s", queryName(q), msg)
			}
		}
		for _, m := range defs.EndToEnd {
			o.e2e[m.Name] = 1
		}
		res, err := buildResult(defs, o, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := exitCode(res), map[bool]int{false: 0, true: 1}[corrupt]; got != want {
			t.Errorf("corrupt=%v: exit code %d, want %d (mismatches %v)", corrupt, got, want, o.mismatches)
		}
		if corrupt && (res.Correct || res.Failed != len(queries)) {
			t.Errorf("corrupted run: correct=%v failed=%d, want false and %d", res.Correct, res.Failed, len(queries))
		}
	}
}

// TestReportBytesCatchPathIdentity: the warm-path rule compares whole
// reports, so a changed pin name is caught even when slacks agree.
func TestReportBytesCatchPathIdentity(t *testing.T) {
	tm := mediumTimer(t)
	q := cppr.Query{K: 5, Mode: model.Setup, CRPR: cppr.CRPRSamePin}
	rep, err := tm.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := freshNoCache(context.Background(), tm.Design(), nil, q, cppr.Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reportBytes(tm.Design(), rep, q); !bytes.Equal(got, want) {
		t.Fatalf("honest report differs from the fresh NoCache timer")
	}
	p := rep.Paths[0]
	p.Pins = append([]model.PinID(nil), p.Pins...)
	p.Pins[0], p.Pins[len(p.Pins)-1] = p.Pins[len(p.Pins)-1], p.Pins[0]
	rep.Paths = append([]model.Path{p}, rep.Paths[1:]...)
	if got := reportBytes(tm.Design(), rep, q); bytes.Equal(got, want) {
		t.Fatalf("corrupted path identity went unnoticed")
	}
}

// TestServedWindow: a response is correct iff it matches the reference
// of some design state in its window.
func TestServedWindow(t *testing.T) {
	q := cppr.Query{K: 2, Mode: model.Setup, CRPR: cppr.CRPRSamePin}
	state := func(a, b int64) *refSet {
		return &refSet{kmax: 2, corners: 1, vec: map[refKey][]int64{{model.Setup, cppr.CRPRSamePin, 0}: {a, b}}}
	}
	refs := []*refSet{state(-5, 3), state(-7, 3)}
	if !matchesSomeState(refs, q, []int64{-7, 3}, 0, 1) {
		t.Error("response of state 1 rejected in window [0, 1]")
	}
	if matchesSomeState(refs, q, []int64{-7, 3}, 0, 0) {
		t.Error("response of state 1 accepted in window [0, 0]")
	}
	if matchesSomeState(refs, q, []int64{-6, 3}, 0, 1) {
		t.Error("response matching no state accepted")
	}
}

// TestExpectedMergesCorners: a multi-corner reference is the k
// smallest of the corners' top-k vectors.
func TestExpectedMergesCorners(t *testing.T) {
	rs := &refSet{kmax: 3, corners: 2, vec: map[refKey][]int64{
		{model.Hold, cppr.CRPRSamePin, 0}: {1, 4, 9},
		{model.Hold, cppr.CRPRSamePin, 1}: {2, 3},
	}}
	got, err := rs.expected(cppr.Query{K: 3, Mode: model.Hold, Corners: cppr.CornerAll, CRPR: cppr.CRPRSamePin})
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkSlacks(got, []int64{1, 2, 3}); msg != "" {
		t.Fatal(msg)
	}
}

// TestSelfTime: self time subtracts the union of child intervals, so
// overlapping children are not counted twice.
func TestSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 30, End: 60},
	}}
	st := r.stats()
	if got := st["parent"].SelfS * 1e9; got < 49.5 || got > 50.5 {
		t.Errorf("parent self time %vns, want 50ns", got)
	}
	if got := st["child"].Count; got != 2 {
		t.Errorf("child count %d, want 2", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 90); got < 4.59 || got > 4.61 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
}
