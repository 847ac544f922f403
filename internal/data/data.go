// Package data provides the deterministic synthetic datasets that stand
// in for MNIST, ImageNet and the BERT pretraining corpus (none of which
// are available to this offline reproduction — see DESIGN.md's
// substitution table). Every dataset is a prototype-plus-noise
// classification task: each class has a fixed random prototype vector and
// samples are noisy observations of it, optionally with label noise and
// feature masking. The three presets differ in dimensionality, class
// count and noise level, calibrated so their training dynamics match the
// role the real dataset plays in the paper's experiments (MNIST: high
// achievable accuracy; ImageNet proxy: long convergence to a ~75% target;
// masked-feature proxy: a two-phase curriculum).
package data

import (
	"fmt"
	"math/rand"
)

// Dataset is an in-memory labelled dataset with flat row-major features.
type Dataset struct {
	X       []float32 // N*Dim features
	Labels  []int     // N class indices
	N       int
	Dim     int
	Classes int
}

// Batch gathers the given sample indices into freshly allocated buffers.
func (d *Dataset) Batch(indices []int) ([]float32, []int) {
	return d.BatchInto(nil, nil, indices)
}

// BatchInto is Batch into caller-owned buffers: it gathers the given
// sample indices into x and labels, reallocating either only when its
// capacity is too small, and returns the filled slices (pass them back
// in next time). The trainer's workers reuse one pair per worker, so a
// steady-state step allocates no batch.
func (d *Dataset) BatchInto(x []float32, labels []int, indices []int) ([]float32, []int) {
	if n := len(indices) * d.Dim; cap(x) < n {
		x = make([]float32, n)
	} else {
		x = x[:n]
	}
	if cap(labels) < len(indices) {
		labels = make([]int, len(indices))
	} else {
		labels = labels[:len(indices)]
	}
	for j, i := range indices {
		copy(x[j*d.Dim:(j+1)*d.Dim], d.X[i*d.Dim:(i+1)*d.Dim])
		labels[j] = d.Labels[i]
	}
	return x, labels
}

// Shard returns the contiguous 1/size slice of the dataset assigned to
// rank, the way Horovod users partition data across workers (§4.1: "the
// user is responsible for partitioning data across nodes"). The N % size
// leftover samples are spread one each over the first N % size ranks, so
// shard sizes differ by at most one (piling the whole remainder onto the
// last rank would skew its per-epoch step count — at N=1000, size=64
// the old scheme gave the last worker 55 samples against everyone
// else's 15). The returned dataset views the parent's storage.
func (d *Dataset) Shard(rank, size int) *Dataset {
	if rank < 0 || rank >= size {
		panic(fmt.Sprintf("data: shard rank %d out of range [0,%d)", rank, size))
	}
	per := d.N / size
	rem := d.N % size
	lo := rank*per + min(rank, rem)
	hi := lo + per
	if rank < rem {
		hi++
	}
	return &Dataset{
		X:       d.X[lo*d.Dim : hi*d.Dim],
		Labels:  d.Labels[lo:hi],
		N:       hi - lo,
		Dim:     d.Dim,
		Classes: d.Classes,
	}
}

// Config parameterizes the prototype-plus-noise generator.
type Config struct {
	N          int     // number of samples
	Dim        int     // feature dimension
	Classes    int     // number of classes
	Noise      float64 // stddev of additive Gaussian feature noise
	LabelNoise float64 // probability a label is replaced uniformly
	MaskFrac   float64 // fraction of features zeroed per sample (BERT-style masking)
	Seed       int64
}

// GeneratePair builds a train and a test dataset sharing the same class
// prototypes. The test set has no label noise (evaluation is against
// clean labels, like validating on the real test split).
func GeneratePair(cfg Config, testN int) (train, test *Dataset) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	protos := prototypes(rng, cfg.Classes, cfg.Dim)
	train = sampleFrom(rng, protos, cfg)
	testCfg := cfg
	testCfg.N = testN
	testCfg.LabelNoise = 0
	test = sampleFrom(rng, protos, testCfg)
	return train, test
}

func prototypes(rng *rand.Rand, classes, dim int) [][]float32 {
	protos := make([][]float32, classes)
	for c := range protos {
		p := make([]float32, dim)
		for i := range p {
			p[i] = float32(rng.NormFloat64())
		}
		protos[c] = p
	}
	return protos
}

func sampleFrom(rng *rand.Rand, protos [][]float32, cfg Config) *Dataset {
	d := &Dataset{
		X:       make([]float32, cfg.N*cfg.Dim),
		Labels:  make([]int, cfg.N),
		N:       cfg.N,
		Dim:     cfg.Dim,
		Classes: cfg.Classes,
	}
	for s := 0; s < cfg.N; s++ {
		cls := s % cfg.Classes // balanced classes
		row := d.X[s*cfg.Dim : (s+1)*cfg.Dim]
		proto := protos[cls]
		for i := range row {
			row[i] = proto[i] + float32(rng.NormFloat64()*cfg.Noise)
		}
		if cfg.MaskFrac > 0 {
			masked := int(cfg.MaskFrac * float64(cfg.Dim))
			for k := 0; k < masked; k++ {
				row[rng.Intn(cfg.Dim)] = 0
			}
		}
		if cfg.LabelNoise > 0 && rng.Float64() < cfg.LabelNoise {
			cls = rng.Intn(cfg.Classes)
		}
		d.Labels[s] = cls
	}
	// Shuffle so shards are class-balanced draws rather than class runs.
	perm := rng.Perm(cfg.N)
	shuffled := &Dataset{
		X:      make([]float32, len(d.X)),
		Labels: make([]int, len(d.Labels)),
		N:      d.N, Dim: d.Dim, Classes: d.Classes,
	}
	for to, from := range perm {
		copy(shuffled.X[to*d.Dim:(to+1)*d.Dim], d.X[from*d.Dim:(from+1)*d.Dim])
		shuffled.Labels[to] = d.Labels[from]
	}
	return shuffled
}

// SyntheticMNIST builds the MNIST stand-in used by the LeNet-5 and
// exact-Hessian experiments: 14×14 "images" (dim 196), 10 classes,
// moderate noise so the achievable accuracy is in the high 90s like real
// MNIST.
func SyntheticMNIST(seed int64, trainN, testN int) (train, test *Dataset) {
	return GeneratePair(Config{
		N: trainN, Dim: 196, Classes: 10, Noise: 1.1, Seed: seed,
	}, testN)
}

// SyntheticImageNet builds the ImageNet stand-in for the ResNet-50
// convergence studies: higher class count and heavy feature noise so
// reaching the target accuracy takes many epochs, mirroring the 62-90
// epoch regimes of §5.1/5.2.
func SyntheticImageNet(seed int64, trainN, testN int) (train, test *Dataset) {
	return GeneratePair(Config{
		N: trainN, Dim: 128, Classes: 16, Noise: 2.4, LabelNoise: 0.04, Seed: seed,
	}, testN)
}

// SyntheticMaskedLM builds the BERT pretraining stand-in: masked,
// noisy observations of class prototypes. The masking plays the role of
// the masked-token objective; phase 2 of the BERT experiments uses a
// higher mask fraction (longer "sequences" are costlier but carry more
// signal per sample — the cost side is modeled in simnet).
func SyntheticMaskedLM(seed int64, trainN, testN int, maskFrac float64) (train, test *Dataset) {
	return GeneratePair(Config{
		N: trainN, Dim: 160, Classes: 12, Noise: 3.2, MaskFrac: maskFrac, Seed: seed,
	}, testN)
}

// Iterator yields minibatch index sets over a dataset, reshuffling every
// epoch with its own deterministic stream. Its position is fully
// described by (reshuffle count, cursor) — State/Seek below — because
// the shuffle stream itself is a pure function of the seed, which is
// what lets a checkpoint store two integers instead of generator
// internals and still resume bitwise.
type Iterator struct {
	n, batch   int
	seed       int64
	rng        *rand.Rand
	perm       []int
	cursor     int
	reshuffles int64
}

// NewIterator creates an iterator over n samples with the given batch
// size and shuffle seed.
func NewIterator(n, batch int, seed int64) *Iterator {
	if batch <= 0 || n <= 0 {
		panic("data: iterator needs positive n and batch")
	}
	it := &Iterator{n: n, batch: batch, seed: seed, rng: rand.New(rand.NewSource(seed))}
	it.reshuffle()
	return it
}

// reshuffle draws the next epoch's permutation into the reused perm
// buffer. The loop is rand.Perm's — the same Intn draws in the same
// order, reading only entries it has already written — so the sequence
// is exactly rand.Perm's without a new slice every epoch.
func (it *Iterator) reshuffle() {
	if it.perm == nil {
		it.perm = make([]int, it.n)
	}
	for i := range it.perm {
		j := it.rng.Intn(i + 1)
		it.perm[i] = it.perm[j]
		it.perm[j] = i
	}
	it.cursor = 0
	it.reshuffles++
}

// State returns the iterator's replayable position: how many epoch
// reshuffles have happened (>= 1; construction shuffles once) and the
// cursor within the current permutation.
func (it *Iterator) State() (reshuffles int64, cursor int) {
	return it.reshuffles, it.cursor
}

// Restore rewinds (or fast-forwards) the iterator to a position captured
// by State, replaying the deterministic shuffle stream from the seed so
// the current permutation — and every future one — is bitwise-identical
// to an iterator that walked there step by step.
func (it *Iterator) Restore(reshuffles int64, cursor int) {
	if reshuffles < 1 {
		reshuffles = 1
	}
	if cursor < 0 || cursor > it.n {
		panic(fmt.Sprintf("data: Restore cursor %d outside [0,%d]", cursor, it.n))
	}
	it.rng = rand.New(rand.NewSource(it.seed))
	it.reshuffles = 0
	for i := int64(0); i < reshuffles; i++ {
		it.reshuffle()
	}
	it.cursor = cursor
}

// Next returns the next batch of sample indices, reshuffling at epoch
// boundaries. Batches never span epochs; a short tail batch is returned
// at the end of an epoch. The batch is a window of the iterator's
// permutation buffer, valid until the next call.
func (it *Iterator) Next() []int {
	if it.cursor >= it.n {
		it.reshuffle()
	}
	hi := it.cursor + it.batch
	if hi > it.n {
		hi = it.n
	}
	out := it.perm[it.cursor:hi]
	it.cursor = hi
	return out
}
