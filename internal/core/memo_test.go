package core

import (
	"context"
	"sync"
	"testing"

	"fastcppr/gen"
	"fastcppr/model"
)

// alwaysValid is the no-edits-yet validator: every entry stays exact.
func alwaysValid(uint64, *model.PinSet) bool { return true }

func mustMemo(tb testing.TB, e *Engine, opts Options, c *JobCache, seq uint64, valid func(uint64, *model.PinSet) bool) Result {
	tb.Helper()
	res, err := e.TopPathsMemo(context.Background(), opts, MemoCtx{Cache: c, Seq: seq, Valid: valid})
	if err != nil {
		tb.Fatalf("TopPathsMemo: %v", err)
	}
	return res
}

// equalPaths compares reports field-by-field, pins included — the
// byte-identity contract of the memoized path.
func equalPaths(tb testing.TB, what string, got, want []model.Path) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Slack != w.Slack || g.PreSlack != w.PreSlack || g.Credit != w.Credit ||
			g.LCADepth != w.LCADepth || g.LaunchFF != w.LaunchFF || g.CaptureFF != w.CaptureFF ||
			g.Mode != w.Mode {
			tb.Fatalf("%s: path %d differs: %+v vs %+v", what, i, g, w)
		}
		if len(g.Pins) != len(w.Pins) {
			tb.Fatalf("%s: path %d pin count %d vs %d", what, i, len(g.Pins), len(w.Pins))
		}
		for j := range g.Pins {
			if g.Pins[j] != w.Pins[j] {
				tb.Fatalf("%s: path %d pin %d: %d vs %d", what, i, j, g.Pins[j], w.Pins[j])
			}
		}
	}
}

func TestTopPathsMemoMatchesTopPaths(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		d := gen.MustGenerate(gen.Medium(seed))
		e := NewEngine(d)
		for _, mode := range []model.Mode{model.Setup, model.Hold} {
			for _, dense := range []bool{false, true} {
				for _, k := range []int{1, 7, 50} {
					opts := Options{K: k, Mode: mode, DenseKernel: dense}
					want := mustTopPaths(t, e, opts)
					cache := NewJobCache(nil)
					cold := mustMemo(t, e, opts, cache, 0, alwaysValid)
					warm := mustMemo(t, e, opts, cache, 0, alwaysValid)
					equalPaths(t, "cold memo", cold.Paths, want.Paths)
					equalPaths(t, "warm memo", warm.Paths, want.Paths)
					if cold.Stats.Jobs != want.Stats.Jobs || warm.Stats.Jobs != want.Stats.Jobs {
						t.Fatalf("Jobs: memo %d/%d, TopPaths %d",
							cold.Stats.Jobs, warm.Stats.Jobs, want.Stats.Jobs)
					}
					if cold.Stats.Candidates < cold.Stats.Kept {
						t.Fatalf("cold Candidates %d < Kept %d", cold.Stats.Candidates, cold.Stats.Kept)
					}
					if warm.Stats.Reconstructed != 0 {
						t.Fatalf("warm run reconstructed %d paths, want 0 (all jobs cached)",
							warm.Stats.Reconstructed)
					}
				}
			}
		}
	}
}

func TestTopPathsMemoKPrefixServing(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(1))
	e := NewEngine(d)
	var ctr CacheCounters
	cache := NewJobCache(&ctr)

	// Prime at a large budget, then serve strictly smaller budgets from
	// the same entries: the pop stream's prefix property makes the
	// truncated answers exact.
	big := Options{K: 64, Mode: model.Setup}
	mustMemo(t, e, big, cache, 0, alwaysValid)
	misses := ctr.Misses.Load()
	for _, k := range []int{1, 3, 17, 64} {
		opts := Options{K: k, Mode: model.Setup}
		got := mustMemo(t, e, opts, cache, 0, alwaysValid)
		want := mustTopPaths(t, e, opts)
		equalPaths(t, "k-prefix", got.Paths, want.Paths)
	}
	if ctr.Misses.Load() != misses {
		t.Fatalf("smaller-k queries re-ran jobs: misses %d -> %d", misses, ctr.Misses.Load())
	}

	// A larger budget than any entry forces re-runs — except for jobs
	// whose stream already ran dry (exhausted entries serve any K).
	mustMemo(t, e, Options{K: 128, Mode: model.Setup}, cache, 0, alwaysValid)
	if ctr.Misses.Load() == misses {
		t.Fatal("K=128 after K=64 should have re-run at least one non-exhausted job")
	}

	// A tiny design where K exceeds every job's candidate stream: once
	// exhausted entries exist, any larger K is a full hit.
	d2 := gen.MustGenerate(gen.SmallOracle(2))
	e2 := NewEngine(d2)
	var ctr2 CacheCounters
	cache2 := NewJobCache(&ctr2)
	mustMemo(t, e2, Options{K: 512, Mode: model.Hold}, cache2, 0, alwaysValid)
	m := ctr2.Misses.Load()
	got := mustMemo(t, e2, Options{K: 1024, Mode: model.Hold}, cache2, 0, alwaysValid)
	want := mustTopPaths(t, e2, Options{K: 1024, Mode: model.Hold})
	equalPaths(t, "exhausted upscale", got.Paths, want.Paths)
	if ctr2.Misses.Load() != m {
		t.Fatalf("exhausted entries re-ran on larger K: misses %d -> %d", m, ctr2.Misses.Load())
	}
}

func TestTopPathsMemoInvalidation(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(2))
	e := NewEngine(d)
	var ctr CacheCounters
	cache := NewJobCache(&ctr)
	opts := Options{K: 20, Mode: model.Setup}
	want := mustTopPaths(t, e, opts)

	mustMemo(t, e, opts, cache, 0, alwaysValid)
	entries := cache.Len()
	if entries == 0 {
		t.Fatal("no entries cached")
	}

	// A validator that reports every cone dirty: all entries must be
	// dropped and re-run, and the rebuilt answer must still be exact.
	got := mustMemo(t, e, opts, cache, 1, func(uint64, *model.PinSet) bool { return false })
	equalPaths(t, "after invalidation", got.Paths, want.Paths)
	if inv := ctr.Invalidated.Load(); inv != int64(entries) {
		t.Fatalf("Invalidated = %d, want %d (every entry)", inv, entries)
	}

	// Entries were re-stored at seq 1; a validator that certifies them
	// serves the whole query from cache.
	rec := mustMemo(t, e, opts, cache, 1, func(seq uint64, _ *model.PinSet) bool { return seq >= 1 }).Stats.Reconstructed
	if rec != 0 {
		t.Fatalf("revalidated query reconstructed %d, want 0", rec)
	}
}

// TestTopPathsMemoSeqBump checks the walk-shortening contract: a
// successful reuse advances the entry's seq, so the next validation
// starts from the later sequence number.
func TestTopPathsMemoSeqBump(t *testing.T) {
	d := gen.MustGenerate(gen.SmallOracle(0))
	e := NewEngine(d)
	cache := NewJobCache(nil)
	opts := Options{K: 8, Mode: model.Setup}
	mustMemo(t, e, opts, cache, 3, alwaysValid)
	// Reuse at seq 9 bumps stored seqs from 3 to 9...
	mustMemo(t, e, opts, cache, 9, alwaysValid)
	// ...which this validator observes. Jobs validate concurrently.
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	mustMemo(t, e, opts, cache, 9, func(seq uint64, _ *model.PinSet) bool {
		mu.Lock()
		defer mu.Unlock()
		seen[seq] = true
		return true
	})
	if seen[3] || !seen[9] {
		t.Fatalf("entry seqs not bumped on reuse: saw %v, want only 9", seen)
	}
}
