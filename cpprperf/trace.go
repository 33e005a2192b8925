package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around a public entry point. Parent is the id of the enclosing span
// (0 for a root); Req groups the spans of one request or step.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
// Safe for concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// spanStat aggregates the closed spans of one name.
type spanStat struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	// SelfS is TotalS minus the time covered by child spans.
	SelfS float64 `json:"self_s"`
}

// stats aggregates closed spans by name. Self time is a span's
// duration minus the union of its children's intervals (children may
// overlap when they ran concurrently).
func (r *recorder) stats() map[string]spanStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]spanStat{}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.TotalS += float64(dur) / 1e9
		st.SelfS += float64(dur-covered(children[s.ID], s.Start, s.End)) / 1e9
		out[s.Name] = st
	}
	return out
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// total returns the summed duration of the spans named name, in
// seconds, and how many there were.
func (r *recorder) total(name string) (float64, int) {
	st := r.stats()[name]
	return st.TotalS, st.Count
}

// mean returns the mean duration of the spans named name, in seconds
// (0 when there are none).
func (r *recorder) mean(name string) float64 {
	tot, n := r.total(name)
	if n == 0 {
		return 0
	}
	return tot / float64(n)
}

// writeFile writes the spans and their per-name summary as JSON.
func (r *recorder) writeFile(path, host string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	summary := r.stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Host    string              `json:"host"`
		Summary map[string]spanStat `json:"summary"`
		Spans   []span              `json:"spans"`
	}{host, summary, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
