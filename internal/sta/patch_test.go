package sta

import (
	"math/rand"
	"testing"
	"unsafe"

	"fastcppr/gen"
	"fastcppr/model"
)

// seedFn is the per-pin view of a seed set that PatchSparse replays:
// the tuple applySeeds offered at v, if any.
func seedFn(ops []seedOp) func(model.PinID) (Tuple, bool) {
	m := make(map[model.PinID]Tuple, len(ops))
	for _, o := range ops {
		m[o.pin] = Tuple{Time: o.t, From: o.origin, Origin: o.origin, Group: o.group, Valid: true}
	}
	return func(v model.PinID) (Tuple, bool) {
		t, ok := m[v]
		return t, ok
	}
}

// editDataArcs returns a copy of d with n random data arcs (neither end
// a clock pin) given new delays, and the edited arc indices.
func editDataArcs(d *model.Design, rng *rand.Rand, n int) (*model.Design, []int32) {
	nd := d.CloneWithArcs()
	var arcs []int32
	for tries := 0; len(arcs) < n && tries < 100*n; tries++ {
		ai := rng.Intn(nd.NumArcs())
		a := &nd.Arcs[ai]
		if nd.IsClockPin(a.From) || nd.IsClockPin(a.To) {
			continue
		}
		early := model.Time(rng.Intn(400))
		a.Delay = model.Window{Early: early, Late: early + model.Time(rng.Intn(400))}
		arcs = append(arcs, int32(ai))
	}
	return nd, arcs
}

// requireAccessorsEqual checks that got answers At and Auto exactly like
// want at every pin, for every group tag the seeds use and NoGroup.
func requireAccessorsEqual(t *testing.T, d *model.Design, want, got *Prop) {
	t.Helper()
	for u := model.PinID(0); int(u) < d.NumPins(); u++ {
		if w, g := want.At(u), got.At(u); w != g {
			t.Fatalf("pin %s: At %+v, want %+v", d.PinName(u), g, w)
		}
		for gid := NoGroup; gid < 4; gid++ {
			if w, g := want.Auto(u, gid), got.Auto(u, gid); w != g {
				t.Fatalf("pin %s: Auto(%d) %+v, want %+v", d.PinName(u), gid, g, w)
			}
		}
	}
}

// TestCloneSparseCompact is the contract of the compact retained clone:
// it answers At/Auto exactly like its source, costs no more than
// 4·NumPins + 48·live bytes, patches to the tuples of a fresh run on the
// edited design, and unpatches to its pre-patch state.
func TestCloneSparseCompact(t *testing.T) {
	if sz := unsafe.Sizeof(tuplePair{}); sz != pairBytes {
		t.Fatalf("tuplePair is %d bytes, want %d", sz, pairBytes)
	}
	designs := []*model.Design{gen.MustGenerate(gen.Medium(3))}
	for seed := int64(0); seed < 6; seed++ {
		designs = append(designs, gen.MustGenerate(gen.SmallOracle(seed)))
	}
	old := sparseParGrain
	sparseParGrain = 1 // odd reps run the partitioned kernel's parallel phases
	defer func() { sparseParGrain = old }()
	patched := 0
	for di, d := range designs {
		rng := rand.New(rand.NewSource(int64(di)*31 + 5))
		for rep := 0; rep < 4; rep++ {
			for _, setup := range []bool{true, false} {
				ops := randomSeeds(d, rng)
				var src Prop
				src.ResetFor(d)
				applySeeds(&src, ops, setup)
				if rep%2 == 0 {
					src.RunSparse(d, setup, nil)
				} else {
					src.RunSparseParallel(d, setup, nil, 2)
				}
				c := src.CloneSparse()
				requireAccessorsEqual(t, d, &src, c)
				requireKernelsEqual(t, d, &src, c)

				live := 0
				for u := model.PinID(0); int(u) < d.NumPins(); u++ {
					if ok, _, _ := propState(&src, u); ok {
						live++
					}
				}
				if src.live != live {
					t.Fatalf("design %d: drain counted %d live pins, want %d", di, src.live, live)
				}
				if limit := int64(4*d.NumPins() + pairBytes*live); c.CloneBytes() > limit {
					t.Fatalf("design %d: clone takes %d bytes, over 4·%d + 48·%d = %d",
						di, c.CloneBytes(), d.NumPins(), live, limit)
				}

				// A borrowed patch: tuple-identical to a fresh run on the
				// edited design, then restored exactly by Unpatch.
				d2, arcs := editDataArcs(d, rng, 1+rng.Intn(4))
				var undo PropUndo
				c.PatchSparse(d2, setup, arcs, seedFn(ops), &undo)
				var fresh Prop
				fresh.ResetFor(d2)
				applySeeds(&fresh, ops, setup)
				fresh.RunSparse(d2, setup, nil)
				requireKernelsEqual(t, d2, &fresh, c)
				patched += undo.Len()
				c.Unpatch(&undo)
				if undo.Len() != 0 {
					t.Fatalf("Unpatch left %d entries in the log", undo.Len())
				}
				requireKernelsEqual(t, d, &src, c)

				// Owned patches in sequence, no undo log: each step still
				// matches a fresh run.
				cur := d
				for step := 0; step < 3; step++ {
					next, arcs := editDataArcs(cur, rng, 1+rng.Intn(3))
					c.PatchSparse(next, setup, arcs, seedFn(ops), nil)
					fresh.ResetFor(next)
					applySeeds(&fresh, ops, setup)
					fresh.RunSparse(next, setup, nil)
					requireKernelsEqual(t, next, &fresh, c)
					requireAccessorsEqual(t, next, &fresh, c)
					cur = next
				}
			}
		}
	}
	if patched == 0 {
		t.Fatal("no borrowed patch changed any pin: the edits never reached a live cone")
	}
}
