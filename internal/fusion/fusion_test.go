package fusion

import (
	"math/rand"
	"testing"

	"repro/internal/adasum"
	"repro/internal/tensor"
)

func mkTensors(seed int64, sizes []int) ([][]float32, []string) {
	rng := rand.New(rand.NewSource(seed))
	ts := make([][]float32, len(sizes))
	names := make([]string, len(sizes))
	for i, s := range sizes {
		t := make([]float32, s)
		for j := range t {
			t[j] = rng.Float32() - 0.5
		}
		ts[i] = t
		names[i] = "t"
	}
	return ts, names
}

func TestFuseRespectsThreshold(t *testing.T) {
	ts, names := mkTensors(1, []int{100, 100, 100, 100}) // 400B each
	groups := Fuse(ts, names, 1000)                      // fits 2 per group
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	for _, g := range groups {
		if g.Bytes() > 1000 {
			t.Fatalf("group exceeds threshold: %d bytes", g.Bytes())
		}
	}
}

func TestFuseOversizedTensorAlone(t *testing.T) {
	ts, names := mkTensors(2, []int{10, 1000, 10})
	groups := Fuse(ts, names, 256)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3 (oversized tensor isolated)", len(groups))
	}
	if len(groups[1].Data) != 1000 {
		t.Fatalf("middle group holds %d elems", len(groups[1].Data))
	}
}

func TestFusePreservesOrderAndContent(t *testing.T) {
	ts, names := mkTensors(3, []int{5, 7, 3})
	groups := Fuse(ts, names, 1<<20)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
	g := groups[0]
	if g.Layout.NumLayers() != 3 || g.Layout.TotalSize() != 15 {
		t.Fatalf("layout: %d layers, %d total", g.Layout.NumLayers(), g.Layout.TotalSize())
	}
	// Content must be the concatenation.
	off := 0
	for _, src := range ts {
		for _, v := range src {
			if g.Data[off] != v {
				t.Fatal("fused content mismatch")
			}
			off++
		}
	}
}

func TestUnfuseRoundTrip(t *testing.T) {
	ts, names := mkTensors(4, []int{8, 16, 4, 32})
	orig := make([][]float32, len(ts))
	for i := range ts {
		orig[i] = tensor.Clone(ts[i])
	}
	groups := Fuse(ts, names, 64)
	// Mutate fused buffers (simulating a reduction), then unfuse.
	for gi := range groups {
		for j := range groups[gi].Data {
			groups[gi].Data[j] *= 2
		}
	}
	UnfuseAll(groups, ts)
	for i := range ts {
		for j := range ts[i] {
			if ts[i][j] != 2*orig[i][j] {
				t.Fatalf("unfuse[%d][%d] = %v, want %v", i, j, ts[i][j], 2*orig[i][j])
			}
		}
	}
}

// TestFusedAdasumEqualsPerTensor is the §4.4.3 bookkeeping property:
// running per-layer Adasum on a fused buffer (with its boundary layout)
// must produce exactly the per-tensor pairwise results.
func TestFusedAdasumEqualsPerTensor(t *testing.T) {
	sizes := []int{6, 10, 3}
	a, names := mkTensors(5, sizes)
	b, _ := mkTensors(6, sizes)

	// Per-tensor reference.
	want := make([][]float32, len(sizes))
	for i := range sizes {
		want[i] = make([]float32, sizes[i])
		adasum.CombineFused(want[i], a[i], b[i])
	}

	ga := Fuse(a, names, 1<<20)[0]
	gb := Fuse(b, names, 1<<20)[0]
	adasum.CombineLayers(ga.Data, ga.Data, gb.Data, ga.Layout)
	out := make([][]float32, len(sizes))
	for i, s := range sizes {
		out[i] = make([]float32, s)
	}
	ga.Unfuse(out)

	for i := range want {
		if !tensor.Equal(out[i], want[i], 1e-6) {
			t.Fatalf("fused per-layer adasum diverges from per-tensor at %d", i)
		}
	}
}

func TestFuseEmptyInput(t *testing.T) {
	groups := Fuse(nil, nil, 1024)
	if len(groups) != 0 {
		t.Fatalf("empty fuse produced %d groups", len(groups))
	}
}

func TestFuseDefaultThreshold(t *testing.T) {
	ts, names := mkTensors(7, []int{4, 4})
	groups := Fuse(ts, names, 0)
	if len(groups) != 1 {
		t.Fatalf("default threshold should fuse small tensors together, got %d groups", len(groups))
	}
}
