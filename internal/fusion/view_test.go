package fusion

import (
	"testing"

	"repro/internal/tensor"
)

// aliases reports whether a and b start at the same element.
func aliases(a, b []float32) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestPackerViewsOneMemberBuckets: a bucket holding one tensor is that
// tensor — across Reset, and re-pointed when the caller's tensors move
// while the shape stays.
func TestPackerViewsOneMemberBuckets(t *testing.T) {
	ts, names := mkTensors(1, []int{100, 100, 100})
	pk := NewPacker(400) // one 100-float tensor per bucket
	for step := 0; step < 2; step++ {
		groups := packAll(pk, ts, names)
		if len(groups) != 3 {
			t.Fatalf("step %d: %d groups, want 3", step, len(groups))
		}
		for i, g := range groups {
			if len(g.Members) != 1 || !aliases(g.Data, ts[g.Members[0]]) || len(g.Data) != 100 {
				t.Fatalf("step %d group %d: Data is not a view of tensor %v", step, i, g.Members)
			}
		}
	}
	moved, _ := mkTensors(2, []int{100, 100, 100})
	for i, g := range packAll(pk, moved, names) {
		if !aliases(g.Data, moved[g.Members[0]]) {
			t.Fatalf("group %d still views the previous step's tensor", i)
		}
	}
}

// TestPackerZeroLengthView: a zero-length tensor that travels alone is
// an empty view, and unfusing it is a no-op.
func TestPackerZeroLengthView(t *testing.T) {
	ts, names := mkTensors(3, []int{100, 0, 100})
	groups := packAll(NewPacker(256), ts, names)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	g := groups[1]
	if len(g.Members) != 1 || g.Members[0] != 1 || len(g.Data) != 0 || g.Layout.TotalSize() != 0 {
		t.Fatalf("zero-length bucket: members %v, %d elems", g.Members, len(g.Data))
	}
	g.Unfuse(ts)
	if only, _ := mkTensors(4, []int{0}); len(packAll(NewPacker(256), only, []string{"t"})[0].Data) != 0 {
		t.Fatal("a lone zero-length tensor is not an empty view")
	}
}

// TestPackerViewPackedViewRebuilds: when one bucket slot alternates
// between a single tensor and several, the skeleton is rebuilt each
// time — a packed bucket gets a buffer of its own, never the memory the
// previous view pointed at.
func TestPackerViewPackedViewRebuilds(t *testing.T) {
	pk := NewPacker(1 << 20)
	one, oneNames := mkTensors(5, []int{32})
	two, twoNames := mkTensors(6, []int{16, 48})
	for round := 0; round < 2; round++ {
		if g := packAll(pk, one, oneNames)[0]; !aliases(g.Data, one[0]) || g.Layout.TotalSize() != 32 {
			t.Fatalf("round %d: the one-tensor bucket is not a view", round)
		}
		g := packAll(pk, two, twoNames)[0]
		if aliases(g.Data, one[0]) || aliases(g.Data, two[0]) || len(g.Members) != 2 {
			t.Fatalf("round %d: the two-tensor bucket aliases a tensor", round)
		}
		if !tensor.Equal(g.Data[:16], two[0], 0) || !tensor.Equal(g.Data[16:], two[1], 0) {
			t.Fatalf("round %d: packed data is stale", round)
		}
	}
}

// TestPackerPacksReadyOrder: a multi-tensor bucket holds its members in
// the order they were declared ready — backprop's reverse order — not
// in their order inside the caller's flat vector, and never aliases it.
func TestPackerPacksReadyOrder(t *testing.T) {
	layout := tensor.NewLayout([]string{"a", "b", "c"}, []int{4, 6, 5})
	x, _ := mkTensors(7, []int{15})
	pk := NewPacker(44) // layers c and b together, a alone
	pk.Reset()
	var groups []*Group
	for l := 2; l >= 0; l-- {
		if g := pk.Ready(l, layout.Name(l), layout.Slice(x[0], l)); g != nil {
			groups = append(groups, g)
		}
	}
	groups = append(groups, pk.Flush())
	if len(groups) != 2 || len(groups[0].Members) != 2 {
		t.Fatalf("got %d groups (first with members %v), want [c b] then [a]", len(groups), groups[0].Members)
	}
	g := groups[0]
	want := append(append([]float32(nil), layout.Slice(x[0], 2)...), layout.Slice(x[0], 1)...)
	if !tensor.Equal(g.Data, want, 0) || aliases(g.Data, layout.Slice(x[0], 1)) {
		t.Fatalf("packed bucket %v, want ready order %v in its own buffer", g.Data, want)
	}
	if !aliases(groups[1].Data, layout.Slice(x[0], 0)) {
		t.Fatal("the lone layer a is not a view")
	}
}

// TestUnfuseViewChangesNothing: unfusing a view leaves every tensor as
// the reduction left it — the result is already in place.
func TestUnfuseViewChangesNothing(t *testing.T) {
	ts, names := mkTensors(8, []int{10, 10})
	g := packAll(NewPacker(40), ts, names)[1]
	for i := range g.Data {
		g.Data[i] = float32(i) // the collective's in-place result
	}
	before := [][]float32{tensor.Clone(ts[0]), tensor.Clone(ts[1])}
	g.Unfuse(ts)
	for i := range ts {
		if !tensor.Equal(ts[i], before[i], 0) {
			t.Fatalf("Unfuse of a view changed tensor %d", i)
		}
	}
	other := [][]float32{nil, make([]float32, 10)}
	g.Unfuse(other)
	if !tensor.Equal(other[1], ts[1], 0) {
		t.Fatal("Unfuse into memory the view does not alias must still copy")
	}
}
