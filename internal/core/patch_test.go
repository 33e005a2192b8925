package core

import (
	"testing"

	"fastcppr/gen"
	"fastcppr/model"
)

// retainedBytes sums the real size of every propagation c retains.
func retainedBytes(c *JobCache) (n int, bytes int64) {
	if m := c.ret.Load(); m != nil {
		for _, rp := range *m {
			n++
			bytes += rp.prop.CloneBytes()
		}
	}
	return n, bytes
}

// TestRetainBudget: the retention budget is charged each clone's real
// compact size, and a store that would exceed RetainMaxBytes is refused
// without changing any report.
func TestRetainBudget(t *testing.T) {
	d := gen.MustGenerate(gen.Medium(6))
	e := NewEngine(d)
	opts := Options{K: 20, Mode: model.Setup}
	want := mustTopPaths(t, e, opts)

	full := NewJobCache(nil)
	equalPaths(t, "unbounded", mustMemo(t, e, opts, full, 0, alwaysValid).Paths, want.Paths)
	n, bytes := retainedBytes(full)
	if n == 0 {
		t.Fatal("no propagation retained under the default budget")
	}
	if got := full.retBytes.Load(); got != bytes {
		t.Fatalf("retention charged %d bytes, clones hold %d", got, bytes)
	}
	if old := int64(n) * int64(d.NumPins()) * 64; bytes >= old {
		t.Fatalf("%d compact clones take %d bytes, not less than the %d of full slot copies", n, bytes, old)
	}

	defer func(old int64) { RetainMaxBytes = old }(RetainMaxBytes)
	for _, budget := range []int64{bytes - 1, 0} {
		RetainMaxBytes = budget
		c := NewJobCache(nil)
		equalPaths(t, "bounded", mustMemo(t, e, opts, c, 0, alwaysValid).Paths, want.Paths)
		m, b := retainedBytes(c)
		if m >= n || b > budget || c.retBytes.Load() != b {
			t.Fatalf("budget %d: retained %d of %d jobs, %d bytes, charged %d", budget, m, n, b, c.retBytes.Load())
		}
	}
}
