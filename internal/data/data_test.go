package data

import (
	"math/rand"
	"testing"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{N: 50, Dim: 8, Classes: 4, Noise: 0.5, Seed: 7}
	a, _ := GeneratePair(cfg, 0)
	b, _ := GeneratePair(cfg, 0)
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("feature generation not deterministic")
		}
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("label generation not deterministic")
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	a, _ := GeneratePair(Config{N: 10, Dim: 4, Classes: 2, Noise: 0.5, Seed: 1}, 0)
	b, _ := GeneratePair(Config{N: 10, Dim: 4, Classes: 2, Noise: 0.5, Seed: 2}, 0)
	same := true
	for i := range a.X {
		if a.X[i] != b.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestLabelsInRange(t *testing.T) {
	d, _ := GeneratePair(Config{N: 100, Dim: 4, Classes: 7, Noise: 1, LabelNoise: 0.5, Seed: 3}, 0)
	for _, l := range d.Labels {
		if l < 0 || l >= 7 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestClassBalance(t *testing.T) {
	d, _ := GeneratePair(Config{N: 1000, Dim: 4, Classes: 10, Noise: 0.1, Seed: 4}, 0)
	counts := make([]int, 10)
	for _, l := range d.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n < 80 || n > 120 {
			t.Fatalf("class %d count %d far from balanced 100", c, n)
		}
	}
}

func TestGeneratePairSharesPrototypes(t *testing.T) {
	// A linear classifier trained on train must transfer to test: cheap
	// proxy check is that per-class feature means correlate across
	// splits.
	train, test := GeneratePair(Config{N: 2000, Dim: 16, Classes: 4, Noise: 0.5, Seed: 5}, 2000)
	trainMeans := classMeans(train)
	testMeans := classMeans(test)
	for c := 0; c < 4; c++ {
		var dot, na, nb float64
		for i := 0; i < 16; i++ {
			dot += float64(trainMeans[c][i] * testMeans[c][i])
			na += float64(trainMeans[c][i] * trainMeans[c][i])
			nb += float64(testMeans[c][i] * testMeans[c][i])
		}
		corr := dot / (sqrt(na)*sqrt(nb) + 1e-12)
		if corr < 0.9 {
			t.Fatalf("class %d prototype correlation %v < 0.9 across splits", c, corr)
		}
	}
}

func sqrt(x float64) float64 {
	z := x
	if z <= 0 {
		return 0
	}
	for i := 0; i < 30; i++ {
		z = 0.5 * (z + x/z)
	}
	return z
}

func classMeans(d *Dataset) [][]float32 {
	means := make([][]float32, d.Classes)
	counts := make([]int, d.Classes)
	for c := range means {
		means[c] = make([]float32, d.Dim)
	}
	for i := 0; i < d.N; i++ {
		x, l := d.X[i*d.Dim:(i+1)*d.Dim], d.Labels[i]
		counts[l]++
		for j, v := range x {
			means[l][j] += v
		}
	}
	for c := range means {
		if counts[c] == 0 {
			continue
		}
		for j := range means[c] {
			means[c][j] /= float32(counts[c])
		}
	}
	return means
}

// TestShardPartition is the shard-balance property: for any (N, size),
// shard sizes differ by at most one, shards are contiguous, and their
// union covers the dataset exactly once. The N=1000, size=64 case is the
// skew the old scheme exhibited (last worker got 55 samples against
// everyone else's 15).
func TestShardPartition(t *testing.T) {
	for _, tc := range []struct{ n, size int }{
		{103, 4}, {1000, 64}, {64, 64}, {65, 64}, {7, 3}, {512, 1}, {100, 100},
	} {
		d, _ := GeneratePair(Config{N: tc.n, Dim: 2, Classes: 3, Noise: 0.1, Seed: 6}, 0)
		total := 0
		minN, maxN := tc.n, 0
		cursor := 0
		for r := 0; r < tc.size; r++ {
			s := d.Shard(r, tc.size)
			total += s.N
			if s.N < minN {
				minN = s.N
			}
			if s.N > maxN {
				maxN = s.N
			}
			// Contiguity: each shard must view the parent's storage
			// starting exactly where the previous shard ended.
			if s.N > 0 {
				if &s.X[0] != &d.X[cursor*d.Dim] {
					t.Fatalf("N=%d size=%d: shard %d does not start at sample %d", tc.n, tc.size, r, cursor)
				}
			}
			cursor += s.N
		}
		if total != tc.n {
			t.Fatalf("N=%d size=%d: shards cover %d samples", tc.n, tc.size, total)
		}
		if maxN-minN > 1 {
			t.Fatalf("N=%d size=%d: shard sizes range [%d, %d], want spread <= 1", tc.n, tc.size, minN, maxN)
		}
	}
}

func TestShardViewsParent(t *testing.T) {
	d, _ := GeneratePair(Config{N: 10, Dim: 2, Classes: 2, Noise: 0.1, Seed: 8}, 0)
	s := d.Shard(1, 2)
	s.X[0] = 42
	if d.X[5*2] != 42 {
		t.Fatal("shard is not a view of parent storage")
	}
}

func TestBatchGathers(t *testing.T) {
	d, _ := GeneratePair(Config{N: 10, Dim: 3, Classes: 2, Noise: 0.1, Seed: 9}, 0)
	x, labels := d.Batch([]int{2, 7})
	if len(x) != 6 || len(labels) != 2 {
		t.Fatalf("batch sizes: %d features, %d labels", len(x), len(labels))
	}
	want, wl := d.X[7*3:8*3], d.Labels[7]
	for i := range want {
		if x[3+i] != want[i] {
			t.Fatal("batch content mismatch")
		}
	}
	if labels[1] != wl {
		t.Fatal("batch label mismatch")
	}
}

func TestIteratorCoversEpoch(t *testing.T) {
	it := NewIterator(10, 3, 1)
	seen := map[int]int{}
	batches := 0
	for seen2 := 0; seen2 < 10; {
		b := it.Next()
		batches++
		for _, i := range b {
			seen[i]++
			seen2++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("epoch covered %d of 10 samples", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("sample %d seen %d times in one epoch", i, n)
		}
	}
	if batches != 4 { // 3+3+3+1
		t.Fatalf("epoch took %d batches, want 4", batches)
	}
}

func TestIteratorReshuffles(t *testing.T) {
	it := NewIterator(32, 32, 2)
	e1 := append([]int(nil), it.Next()...)
	e2 := append([]int(nil), it.Next()...)
	same := true
	for i := range e1 {
		if e1[i] != e2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("second epoch used identical order")
	}
}

// The in-place reshuffle must draw exactly rand.Perm's permutations,
// epoch after epoch: the shuffle stream is part of every golden run.
func TestIteratorMatchesRandPerm(t *testing.T) {
	const n, seed = 37, 5
	it := NewIterator(n, n, seed)
	rng := rand.New(rand.NewSource(seed))
	for epoch := 0; epoch < 4; epoch++ {
		want := rng.Perm(n)
		got := it.Next()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("epoch %d: permutation %v, rand.Perm gives %v", epoch, got, want)
			}
		}
	}
}

func TestMaskedLMZerosFeatures(t *testing.T) {
	train, _ := SyntheticMaskedLM(1, 200, 10, 0.5)
	zeros := 0
	for _, v := range train.X {
		if v == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(len(train.X))
	if frac < 0.3 || frac > 0.6 {
		t.Fatalf("mask fraction %v far from requested 0.5 (with collisions)", frac)
	}
}

func TestPresetsShapes(t *testing.T) {
	tr, te := SyntheticMNIST(1, 100, 50)
	if tr.Dim != 196 || tr.Classes != 10 || te.N != 50 {
		t.Fatalf("MNIST preset: dim=%d classes=%d testN=%d", tr.Dim, tr.Classes, te.N)
	}
	tr, _ = SyntheticImageNet(1, 64, 32)
	if tr.Dim != 128 || tr.Classes != 16 {
		t.Fatalf("ImageNet preset: dim=%d classes=%d", tr.Dim, tr.Classes)
	}
}

// TestIteratorRestoreReplaysExactly pins the checkpoint property the
// trainer relies on: an iterator restored to (reshuffles, cursor)
// yields exactly the batch sequence the original iterator yields from
// that point, across epoch boundaries.
func TestIteratorRestoreReplaysExactly(t *testing.T) {
	a := NewIterator(37, 5, 99)
	// Walk into the second epoch.
	for i := 0; i < 11; i++ {
		a.Next()
	}
	resh, cur := a.State()
	if resh < 2 {
		t.Fatalf("expected to be past the first reshuffle, got %d", resh)
	}

	b := NewIterator(37, 5, 99)
	b.Restore(resh, cur)
	for i := 0; i < 20; i++ {
		x, y := a.Next(), b.Next()
		if len(x) != len(y) {
			t.Fatalf("batch %d length diverged: %d != %d", i, len(x), len(y))
		}
		for j := range x {
			if x[j] != y[j] {
				t.Fatalf("batch %d diverged at %d", i, j)
			}
		}
	}
}
