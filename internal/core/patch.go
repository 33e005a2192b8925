package core

import (
	"sync"

	"fastcppr/internal/lca"
	"fastcppr/internal/sta"
	"fastcppr/model"
)

// This file holds the retained-propagation machinery behind the warm
// single-corner path and the speculative what-if engine: instead of
// re-running a dirtied candidate-generation job from scratch, the cache
// keeps the job's full propagation state and patches only the edited
// arcs' dirty cone (sta.PatchSparse), then replays the collect phase.
// On designs where an edit's cone is a sliver of the graph this turns a
// near-cold recompute into work proportional to the edit's real reach.

// RetainMaxBytes bounds the propagation state one JobCache retains for
// patching, across all jobs: each retained job is charged its compact
// clone's real size, 4·NumPins + 48·live bytes (sta.Prop.CloneBytes).
// Beyond the budget, stores skip retention — the job cache still works,
// dirtied jobs just fall back to full re-runs. A variable so tests can
// exercise the refusal path.
var RetainMaxBytes = int64(256 << 20)

// retainedProp is one job's retained propagation: the completed sparse
// state, and the journal position it reflects. The mutex serializes the
// whole patch + collect critical section — patching mutates prop in
// place, so a second reader must wait (and will then find the journal
// already advanced, or borrow with an undo log).
//
// Ownership: the cache that created the entry (owner) patches in place
// and advances journal/seq; forked caches share the pointer but must
// restore the state via the undo log, so a child's speculative edits
// never leak into the parent's retained state.
type retainedProp struct {
	mu      sync.Mutex
	prop    *sta.Prop
	journal *model.EditJournal
	seq     uint64
	owner   *JobCache
	undo    sta.PropUndo
}

// retained returns the retained propagation for key, if any.
func (c *JobCache) retained(key jobKey) *retainedProp {
	m := c.ret.Load()
	if m == nil {
		return nil
	}
	return (*m)[key]
}

// setRetained publishes rp for key copy-on-write, charging its clone's
// bytes against the retention budget (a replacement pays only the
// difference from the clone it drops). Existing entries are replaced
// only when the newcomer's journal position is at least as new —
// replacement is pure policy (any retained state is sound, it carries
// its own journal), but moving backward would thrash the common
// newest-snapshot readers.
func (c *JobCache) setRetained(key jobKey, rp *retainedProp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var cur map[jobKey]*retainedProp
	if m := c.ret.Load(); m != nil {
		cur = *m
	}
	if old, ok := cur[key]; ok {
		old.mu.Lock()
		stale := old.seq > rp.seq
		old.mu.Unlock()
		if stale {
			return
		}
		c.retBytes.Add(rp.prop.CloneBytes() - old.prop.CloneBytes())
	} else {
		cost := rp.prop.CloneBytes()
		if c.retBytes.Load()+cost > RetainMaxBytes {
			return
		}
		c.retBytes.Add(cost)
	}
	next := make(map[jobKey]*retainedProp, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[key] = rp
	c.ret.Store(&next)
}

// retainProp clones the scratch's just-completed propagation into the
// cache's retained store, positioned at mc's journal head, so the next
// edit that dirties this job can be served by patching. Dense-kernel
// runs are not retained (the patch kernel is sparse-only).
func (e *Engine) retainProp(s *scratch, cache *JobCache, key jobKey, mc MemoCtx) {
	clone := s.prop.CloneSparse()
	if clone == nil {
		return
	}
	cache.setRetained(key, &retainedProp{
		prop:    clone,
		journal: mc.Journal,
		seq:     mc.Seq,
		owner:   cache,
	})
}

// Fork returns an isolated copy of the cache for a snapshot forked at
// journal sequence atSeq: a child timer's cache that shares the
// parent's immutable entry data but diverges independently.
//
// Entries stored after atSeq are dropped (a concurrent parent edit may
// have published them past the fork point), and each surviving entry's
// validation watermark is clamped to atSeq: a watermark proves "no
// dirtying edit in (storeSeq, watermark]" along the PARENT's chain, and
// only the prefix up to atSeq is shared with the child — beyond it the
// chains diverge and the parent's proofs say nothing about the child's
// edits. Retained propagations are shared by pointer; the owner marker
// makes child patches borrow-and-restore instead of mutate-in-place.
// Counters remain shared, so a timer's Stats aggregate across its forks.
func (c *JobCache) Fork(atSeq uint64) *JobCache {
	nc := &JobCache{ctr: c.ctr}
	cur := *c.idx.Load()
	m := make(map[jobKey]*jobEntry, len(cur))
	for k, e := range cur {
		if e.storeSeq > atSeq {
			continue
		}
		ne := &jobEntry{
			storeSeq:  e.storeSeq,
			k:         e.k,
			exhausted: e.exhausted,
			produced:  e.produced,
			cone:      e.cone,
			outs:      e.outs,
		}
		w := e.seq.Load()
		if w > atSeq {
			w = atSeq
		}
		ne.seq.Store(w)
		m[k] = ne
	}
	nc.idx.Store(&m)
	if rm := c.ret.Load(); rm != nil {
		nrm := make(map[jobKey]*retainedProp, len(*rm))
		for k, v := range *rm {
			nrm[k] = v
		}
		nc.ret.Store(&nrm)
	}
	return nc
}

// MemoCtx carries the snapshot-chain context TopPathsMemo validates and
// patches against: the per-corner cache, the snapshot's journal head and
// sequence, the corner the engine computes at, and the entry validator
// (which the caller builds from the journal so it can also count
// cone-disjoint skips).
type MemoCtx struct {
	Cache   *JobCache
	Seq     uint64
	Journal *model.EditJournal
	Corner  model.Corner
	Valid   func(entrySeq uint64, cone *model.PinSet) bool
}

// jobSeedFn returns the per-pin view of seedJob: the tuple spec would
// offer at pin v before propagation, if any. sta.PatchSparse uses it to
// replay a dirty pin's canonical offer order. Must agree exactly with
// seedJob — both are generated from the same grouped tables — and stays
// valid across journaled edits because those never move clock arrivals,
// CK->Q windows, or constraints (such changes rebuild the snapshot).
func (e *Engine) jobSeedFn(spec jobSpec, opts Options) func(model.PinID) (sta.Tuple, bool) {
	setup := opts.Mode == model.Setup
	var lt *lca.LevelTables
	if spec.kind == jobLevel || spec.kind == jobCross {
		lt, _ = e.groupedTables(spec, opts)
	}
	var piIndex map[model.PinID]int // lazily built; PI seeds are rarely in a dirty cone
	return func(v model.PinID) (sta.Tuple, bool) {
		switch e.d.Pins[v].Kind {
		case model.FFOutput:
			if spec.kind == jobPI {
				return sta.Tuple{}, false
			}
			i := int(e.d.Pins[v].FF)
			if opts.launchExcluded(i) {
				return sta.Tuple{}, false
			}
			ff := &e.d.FFs[i]
			gid := sta.NoGroup
			var credit model.Time
			switch spec.kind {
			case jobLevel, jobCross:
				if gid = e.tree.GroupOf(lt, ff.Clock); gid < 0 {
					return sta.Tuple{}, false
				}
				credit = e.tree.CreditAtDOf(lt, ff.Clock)
			case jobSelfLoop:
				credit = e.tree.Credit(ff.Clock)
			}
			arr := e.tree.Arrival(ff.Clock)
			var qAt model.Time
			if setup {
				qAt = arr.Late + e.ckq[i].Late - credit
			} else {
				qAt = arr.Early + e.ckq[i].Early + credit
			}
			return sta.Tuple{Time: qAt, From: ff.Clock, Origin: ff.Clock, Group: gid, Valid: true}, true
		case model.PI:
			if spec.kind != jobPI && spec.kind != jobPO {
				return sta.Tuple{}, false
			}
			if opts.ExcludeLaunchPin != nil && opts.ExcludeLaunchPin[v] {
				return sta.Tuple{}, false
			}
			if piIndex == nil {
				piIndex = make(map[model.PinID]int, len(e.d.PIs))
				for i, pi := range e.d.PIs {
					piIndex[pi] = i
				}
			}
			i, ok := piIndex[v]
			if !ok {
				return sta.Tuple{}, false
			}
			arr := e.d.PIArrival[i]
			var t model.Time
			if setup {
				t = arr.Late
			} else {
				t = arr.Early
			}
			return sta.Tuple{Time: t, From: model.NoPin, Origin: v, Group: sta.NoGroup, Valid: true}, true
		}
		return sta.Tuple{}, false
	}
}

// runJobOn replays spec's collect phase against prop, which must hold a
// completed (or patched) propagation of the job on e's design. The
// scratch's own propagation is untouched.
func (e *Engine) runJobOn(s *scratch, prop *sta.Prop, spec jobSpec, j, k int, opts Options, gb *globalBound) ([]*jobOut, int) {
	saved := s.prop
	s.prop = prop
	defer func() { s.prop = saved }()
	return e.collectJob(s, spec, j, k, opts, gb)
}

// servePatched tries to serve a dirtied job by patching its retained
// propagation instead of re-running it: it proves the snapshot's journal
// is the retained state plus a suffix of same-corner data-arc edits,
// patches the edits' dirty cone in place (canonical-order replay, so the
// result is byte-identical to a fresh run), and replays the collect
// phase. Returns ok=false when no patch applies — divergent journal
// chains, a clock-adjacent edit, or a vanished arc — and the caller
// falls back to a full run.
//
// When mc.Cache owns the retained state the patch is kept and the
// journal position advanced; a forked cache borrows the state under the
// entry mutex and restores it from the undo log, so speculative edits
// never contaminate the parent's retained propagation.
func (e *Engine) servePatched(s *scratch, rp *retainedProp, spec jobSpec, j, k int, opts Options, mc MemoCtx) ([]cachedOut, int, bool) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	edits, ok := mc.Journal.SuffixEdits(rp.journal, mc.Corner, nil)
	if !ok {
		return nil, 0, false
	}
	// Resolve edits to arc indices. Duplicates (an arc edited twice in
	// the suffix) are harmless: the design holds the final delay and the
	// patch worklist enqueues each dirty sink once.
	arcs := make([]int32, 0, len(edits))
	for _, ed := range edits {
		if e.d.IsClockPin(ed.Src) || e.d.IsClockPin(ed.Dst) {
			// Clock-adjacent edits can move seed values; the patch
			// replay assumes they cannot. (Such edits normally rebuild
			// the snapshot and never reach the journal — this guard
			// keeps the invariant local.)
			return nil, 0, false
		}
		ai := e.d.ArcBetween(ed.Src, ed.Dst)
		if ai < 0 {
			return nil, 0, false
		}
		arcs = append(arcs, ai)
	}
	owner := rp.owner == mc.Cache
	var undo *sta.PropUndo
	if !owner {
		undo = &rp.undo
		undo.Reset()
	}
	if len(arcs) > 0 {
		rp.prop.PatchSparse(e.d, opts.Mode == model.Setup, arcs, e.jobSeedFn(spec, opts), undo)
	}
	if owner {
		// The patch itself is not cancellable and is now complete: the
		// retained state reflects the snapshot's journal even if the
		// collect below is cut short.
		rp.journal, rp.seq = mc.Journal, mc.Seq
	} else {
		defer rp.prop.Unpatch(undo)
	}
	runOpts := opts
	runOpts.DisableGlobalBound = true
	var dummy globalBound
	jobOuts, prod := e.runJobOn(s, rp.prop, spec, j, k, runOpts, &dummy)
	if s.canceled() {
		return nil, 0, false
	}
	outs := make([]cachedOut, len(jobOuts))
	for i, o := range jobOuts {
		outs[i] = cachedOut{
			slack:    o.slack,
			idx:      o.idx,
			capFF:    o.capFF,
			launch:   o.launch,
			lcaDepth: o.lcaDepth,
			credit:   o.credit,
			pins:     e.reconstruct(rp.prop, o.chain),
		}
	}
	return outs, prod, true
}
