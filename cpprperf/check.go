package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"fastcppr/cppr"
	"fastcppr/model"
)

// The checks below never compare path identity across algorithms: tie
// order legitimately differs between them, so cross-algorithm checks
// compare sorted slack vectors and path counts only. Byte identity is
// required only between two runs of the same algorithm on the same
// design state.

// slacks returns the report's post-CPPR slacks in picoseconds, sorted.
func slacks(rep cppr.Report) []int64 {
	out := make([]int64, len(rep.Paths))
	for i, p := range rep.Paths {
		out[i] = p.Slack.Ps()
	}
	slices.Sort(out)
	return out
}

// reportBytes is the report's JSON with the timing field zeroed: two
// reports of the same query on the same design state must produce
// equal bytes.
func reportBytes(d *model.Design, rep cppr.Report, q cppr.Query) []byte {
	rep.Elapsed = 0
	b, err := json.Marshal(rep.JSON(d, q.Mode, q.K))
	if err != nil {
		panic(err) // ReportJSON holds only strings and numbers
	}
	return b
}

// refKey names one single-corner reference slack vector.
type refKey struct {
	mode   model.Mode
	crpr   cppr.CRPRSetting
	corner model.Corner
}

// refSet holds reference slack vectors per (mode, crpr, corner), each
// the sorted top-kmax slacks of that corner alone. Top-k vectors of
// any k <= kmax and any corner set derive from them: a corner's top-k
// is a prefix of its top-kmax, and a multi-corner report is the k
// smallest of the union of its corners' top-k.
type refSet struct {
	kmax    int
	corners int
	vec     map[refKey][]int64
}

// keysFor lists the single-corner references queries need.
func keysFor(queries []cppr.Query, corners int) []refKey {
	seen := map[refKey]bool{}
	var out []refKey
	for _, q := range queries {
		for _, c := range cornersOf(q, corners) {
			k := refKey{q.Mode, q.CRPR, c}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// cornersOf resolves a query's corner mask against a design with
// `corners` corners.
func cornersOf(q cppr.Query, corners int) []model.Corner {
	if q.Corners == 0 {
		return []model.Corner{model.BaseCorner}
	}
	var out []model.Corner
	for c := 0; c < corners; c++ {
		if q.Corners.Has(model.Corner(c)) {
			out = append(out, model.Corner(c))
		}
	}
	return out
}

// references runs algo once per key at kmax on t's current design
// state. noCache bypasses the timer's caches (for AlgoLCA references).
func references(ctx context.Context, t *cppr.Timer, algo cppr.Algorithm, noCache bool, keys []refKey, kmax int) (*refSet, error) {
	rs := &refSet{kmax: kmax, corners: t.Design().NumCorners(), vec: map[refKey][]int64{}}
	for _, k := range keys {
		q := cppr.Query{K: kmax, Mode: k.mode, CRPR: k.crpr, Corners: cppr.CornerBit(k.corner), Algorithm: algo, NoCache: noCache}
		rep, err := t.Run(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("%v reference %v/%d: %w", algo, k.mode, k.corner, err)
		}
		if rep.Degraded {
			return nil, fmt.Errorf("%v reference %v/%d degraded", algo, k.mode, k.corner)
		}
		rs.vec[k] = slacks(rep)
	}
	return rs, nil
}

// expected returns the reference slack vector of q.
func (rs *refSet) expected(q cppr.Query) ([]int64, error) {
	if q.K > rs.kmax {
		return nil, fmt.Errorf("query k %d above reference depth %d", q.K, rs.kmax)
	}
	var all []int64
	for _, c := range cornersOf(q, rs.corners) {
		v, ok := rs.vec[refKey{q.Mode, q.CRPR, c}]
		if !ok {
			return nil, fmt.Errorf("no reference for %v corner %d", q.Mode, c)
		}
		all = append(all, v[:min(q.K, len(v))]...)
	}
	slices.Sort(all)
	return all[:min(q.K, len(all))], nil
}

// checkSlacks compares a report's sorted slack vector (which also
// fixes its path count) with the reference; "" means they agree.
func checkSlacks(got []int64, want []int64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("slack #%d is %dps, reference %dps", i+1, got[i], want[i])
		}
	}
	return ""
}

// checkReport checks an LCA report against the reference set: the
// slack vector and path count must match and the report must not be
// degraded.
func checkReport(rs *refSet, q cppr.Query, rep cppr.Report) string {
	if rep.Degraded {
		return "report degraded"
	}
	want, err := rs.expected(q)
	if err != nil {
		return err.Error()
	}
	return checkSlacks(slacks(rep), want)
}

// freshNoCache runs q with caches bypassed on a timer built fresh on d
// (with the given edits applied first): the reference every warm or
// speculative report must equal byte for byte.
func freshNoCache(ctx context.Context, d *model.Design, edits cppr.EditSet, q cppr.Query, par cppr.Parallelism) ([]byte, error) {
	t := cppr.NewTimer(d)
	t.SetParallelism(par)
	for _, e := range edits {
		if err := t.SetArcDelayAt(e.Corner, e.From, e.To, e.Delay); err != nil {
			return nil, err
		}
	}
	q.NoCache = true
	rep, err := t.Run(ctx, q)
	if err != nil {
		return nil, err
	}
	return reportBytes(t.Design(), rep, q), nil
}

// queryName describes q for mismatch messages.
func queryName(q cppr.Query) string {
	corners := "base"
	if q.Corners == cppr.CornerAll {
		corners = "all"
	}
	crpr := "same_pin"
	if q.CRPR == cppr.CRPRSameTransition {
		crpr = "same_transition"
	}
	return fmt.Sprintf("%v k=%d %s %s", q.Mode, q.K, corners, crpr)
}
