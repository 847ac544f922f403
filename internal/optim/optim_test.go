package optim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// quadGrad returns the gradient of f(w) = 0.5*Σ a_i w_i² at w.
func quadGrad(a, w []float32) []float32 {
	g := make([]float32, len(w))
	for i := range w {
		g[i] = a[i] * w[i]
	}
	return g
}

func quadLoss(a, w []float32) float64 {
	var s float64
	for i := range w {
		s += 0.5 * float64(a[i]) * float64(w[i]) * float64(w[i])
	}
	return s
}

func optimizeQuad(opt Optimizer, lr float64, steps int) float64 {
	a := []float32{1, 2, 0.5, 4}
	w := []float32{1, -1, 2, 0.5}
	for i := 0; i < steps; i++ {
		opt.Step(w, quadGrad(a, w), lr)
	}
	return quadLoss(a, w)
}

func TestSGDStep(t *testing.T) {
	w := []float32{1, 2}
	g := []float32{0.5, -1}
	NewSGD().Step(w, g, 0.1)
	if !tensor.Equal(w, []float32{0.95, 2.1}, 1e-6) {
		t.Fatalf("SGD step = %v", w)
	}
}

func TestSGDWeightDecay(t *testing.T) {
	s := &SGD{WeightDecay: 0.1}
	w := []float32{1}
	s.Step(w, []float32{0}, 1)
	if math.Abs(float64(w[0])-0.9) > 1e-6 {
		t.Fatalf("decayed weight = %v, want 0.9", w[0])
	}
}

func TestAllOptimizersReduceQuadraticLoss(t *testing.T) {
	layout := tensor.FlatLayout(4)
	cases := []struct {
		name string
		opt  Optimizer
		lr   float64
	}{
		{"sgd", NewSGD(), 0.1},
		{"momentum", NewMomentum(0.9), 0.02},
		{"adam", NewAdam(), 0.05},
		{"lars", NewLARS(layout, 0.9, 0.02), 1.0},
		{"lamb", NewLAMB(layout), 0.05},
	}
	start := quadLoss([]float32{1, 2, 0.5, 4}, []float32{1, -1, 2, 0.5})
	for _, c := range cases {
		end := optimizeQuad(c.opt, c.lr, 200)
		if end > start/10 {
			t.Errorf("%s: loss %v -> %v (insufficient progress)", c.name, start, end)
		}
		if math.IsNaN(end) {
			t.Errorf("%s: NaN loss", c.name)
		}
	}
}

func TestMomentumAcceleratesOverSGD(t *testing.T) {
	// On an ill-conditioned quadratic, momentum with a modest rate beats
	// plain SGD at the same rate for the same step count.
	sgdLoss := optimizeQuad(NewSGD(), 0.02, 100)
	momLoss := optimizeQuad(NewMomentum(0.9), 0.02, 100)
	if momLoss >= sgdLoss {
		t.Fatalf("momentum (%v) not faster than SGD (%v)", momLoss, sgdLoss)
	}
}

func TestAdamBiasCorrection(t *testing.T) {
	// First step of Adam with g=1 must move by ~lr regardless of betas
	// (bias correction makes mhat=g, vhat=g²).
	a := NewAdam()
	w := []float32{0}
	a.Step(w, []float32{1}, 0.1)
	if math.Abs(float64(w[0])+0.1) > 1e-4 {
		t.Fatalf("first Adam step = %v, want -0.1", w[0])
	}
}

func TestAdamInvariantToGradientScale(t *testing.T) {
	// Adam's per-element normalization makes the first step direction
	// independent of gradient magnitude.
	a1, a2 := NewAdam(), NewAdam()
	w1 := []float32{0}
	w2 := []float32{0}
	a1.Step(w1, []float32{1e-3}, 0.1)
	a2.Step(w2, []float32{1e3}, 0.1)
	if math.Abs(float64(w1[0]-w2[0])) > 1e-5 {
		t.Fatalf("Adam scale invariance broken: %v vs %v", w1[0], w2[0])
	}
}

func TestLAMBTrustRatioScalesStep(t *testing.T) {
	// Two layers with identical gradients but very different weight
	// norms: the large-norm layer must take a larger absolute step.
	layout := tensor.NewLayout([]string{"small", "big"}, []int{2, 2})
	l := NewLAMB(layout)
	l.WeightDecay = 0
	w := []float32{0.01, 0.01, 10, 10}
	g := []float32{1, 1, 1, 1}
	before := append([]float32(nil), w...)
	l.Step(w, g, 0.1)
	smallStep := math.Abs(float64(before[0] - w[0]))
	bigStep := math.Abs(float64(before[2] - w[2]))
	if bigStep <= smallStep {
		t.Fatalf("LAMB trust ratio inactive: small %v, big %v", smallStep, bigStep)
	}
}

func TestLARSTrustRatio(t *testing.T) {
	layout := tensor.FlatLayout(2)
	l := NewLARS(layout, 0, 0.001)
	w := []float32{3, 4} // ‖w‖ = 5
	g := []float32{0.6, 0.8}
	before := append([]float32(nil), w...)
	l.Step(w, g, 1)
	// trust = 0.001*5/1 = 0.005; step = lr*trust*g = 0.005*g.
	wantStep0 := 0.005 * 0.6
	got := float64(before[0] - w[0])
	if math.Abs(got-wantStep0) > 1e-6 {
		t.Fatalf("LARS step = %v, want %v", got, wantStep0)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	layout := tensor.FlatLayout(2)
	opts := []Optimizer{NewSGD(), NewMomentum(0.9), NewAdam(), NewLARS(layout, 0.9, 0.01), NewLAMB(layout)}
	for _, opt := range opts {
		w1 := []float32{1, 1}
		opt.Step(w1, []float32{1, 1}, 0.1)
		c := opt.Clone()
		w2 := []float32{1, 1}
		w3 := []float32{1, 1}
		c.Step(w2, []float32{1, 1}, 0.1)
		// A fresh instance must behave like the clone.
		f := opt.Clone()
		f.Step(w3, []float32{1, 1}, 0.1)
		if !tensor.Equal(w2, w3, 1e-7) {
			t.Errorf("%s: clone state leaked: %v vs %v", opt.Name(), w2, w3)
		}
	}
}

func TestResetClearsState(t *testing.T) {
	m := NewMomentum(0.9)
	w := []float32{1}
	m.Step(w, []float32{1}, 0.1)
	m.Reset()
	w2 := []float32{1}
	m.Step(w2, []float32{1}, 0.1)
	fresh := NewMomentum(0.9)
	w3 := []float32{1}
	fresh.Step(w3, []float32{1}, 0.1)
	if w2[0] != w3[0] {
		t.Fatalf("reset incomplete: %v vs %v", w2[0], w3[0])
	}
}

func TestStateSize(t *testing.T) {
	layout := tensor.FlatLayout(1)
	if NewSGD().StateSize() != 0 || NewMomentum(0.9).StateSize() != 1 ||
		NewAdam().StateSize() != 2 || NewLAMB(layout).StateSize() != 2 {
		t.Fatal("StateSize mismatch")
	}
}

func TestLinearWarmupDecay(t *testing.T) {
	s := LinearWarmupDecay{Base: 1, WarmupSteps: 10, TotalSteps: 110}
	if got := s.LR(0); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("LR(0) = %v", got)
	}
	if got := s.LR(9); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("LR(9) = %v", got)
	}
	if got := s.LR(60); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("LR(60) = %v", got)
	}
	if got := s.LR(110); got != 0 {
		t.Fatalf("LR(end) = %v", got)
	}
	if got := s.LR(500); got != 0 {
		t.Fatalf("LR(past end) = %v", got)
	}
}

func TestMultiStep(t *testing.T) {
	s := MultiStep{Base: 1, Milestones: []int{10, 20}, Gamma: 0.1}
	if s.LR(5) != 1 || math.Abs(s.LR(15)-0.1) > 1e-12 || math.Abs(s.LR(25)-0.01) > 1e-12 {
		t.Fatalf("MultiStep schedule wrong: %v %v %v", s.LR(5), s.LR(15), s.LR(25))
	}
}

func TestPolynomialWarmup(t *testing.T) {
	s := PolynomialWarmup{Base: 2, WarmupSteps: 4, TotalSteps: 104, Power: 1}
	if math.Abs(s.LR(3)-2) > 1e-9 {
		t.Fatalf("LR(3) = %v", s.LR(3))
	}
	if math.Abs(s.LR(54)-1) > 1e-9 {
		t.Fatalf("LR(54) = %v", s.LR(54))
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{Inner: Constant{Base: 0.5}, Factor: 8}
	if s.LR(0) != 4 {
		t.Fatalf("Scaled LR = %v", s.LR(0))
	}
}

func TestOptimizersDeterministic(t *testing.T) {
	// Same seed and inputs => identical trajectories (no hidden global
	// randomness).
	layout := tensor.FlatLayout(8)
	mk := func() []Optimizer {
		return []Optimizer{NewMomentum(0.9), NewAdam(), NewLAMB(layout)}
	}
	rng := rand.New(rand.NewSource(99))
	grads := make([][]float32, 20)
	for i := range grads {
		g := make([]float32, 8)
		for j := range g {
			g[j] = rng.Float32() - 0.5
		}
		grads[i] = g
	}
	run := func(opt Optimizer) []float32 {
		w := make([]float32, 8)
		for i := range w {
			w[i] = 1
		}
		for _, g := range grads {
			opt.Step(w, g, 0.01)
		}
		return w
	}
	a, b := mk(), mk()
	for i := range a {
		wa, wb := run(a[i]), run(b[i])
		if !tensor.Equal(wa, wb, 0) {
			t.Fatalf("%s not deterministic", a[i].Name())
		}
	}
}

// The oracles below are the Adam and Momentum loops as they stood before
// the lane kernels, kept verbatim: Step must reproduce them bit for bit
// — on amd64 through the AVX kernels, under -tags noasm and on 386
// through the pure-Go twins.

func adamStepRef(params, grads, m, v []float32, t int, lr, b1, b2, eps, weightDecay float64) {
	bc1 := 1 - math.Pow(b1, float64(t))
	bc2 := 1 - math.Pow(b2, float64(t))
	wd := float32(weightDecay * lr)
	for i, g := range grads {
		m[i] = float32(b1)*m[i] + float32(1-b1)*g
		v[i] = float32(b2)*v[i] + float32(1-b2)*g*g
		mhat := float64(m[i]) / bc1
		vhat := float64(v[i]) / bc2
		params[i] -= float32(lr*mhat/(math.Sqrt(vhat)+eps)) + wd*params[i]
	}
}

func momentumStepRef(params, grads, v []float32, lr, mu, weightDecay float64) {
	wd := float32(weightDecay)
	l := float32(lr)
	for i, g := range grads {
		g += wd * params[i]
		v[i] = float32(mu)*v[i] + g
		params[i] -= l * v[i]
	}
}

func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return i
		}
	}
	return -1
}

func TestAdamAndMomentumMatchScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 3, 4, 7, 8, 9, 31, 64, 1003} {
		for _, scale := range []float64{1, 1e-21, 1e18} { // 1e-21: g*g is denormal; 1e18: it overflows
			for _, wd := range []float64{0, 0.01} {
				start := make([]float32, n)
				for i := range start {
					start[i] = float32(rng.NormFloat64())
				}

				adam := NewAdam()
				adam.WeightDecay = wd
				p, wantP := tensor.Clone(start), tensor.Clone(start)
				wantM, wantV := make([]float32, n), make([]float32, n)
				mom := NewMomentum(0.9)
				mom.WeightDecay = wd
				q, wantQ, wantMV := tensor.Clone(start), tensor.Clone(start), make([]float32, n)
				for step := 1; step <= 4; step++ {
					g := make([]float32, n)
					for i := range g {
						g[i] = float32(rng.NormFloat64() * scale)
					}
					g[rng.Intn(n)] = 0
					lr := 1e-3 * float64(step)

					adam.Step(p, g, lr)
					adamStepRef(wantP, g, wantM, wantV, step, lr, adam.Beta1, adam.Beta2, adam.Eps, wd)
					if i := firstBitDiff(p, wantP); i >= 0 {
						t.Fatalf("Adam n=%d scale=%g wd=%g step %d: params[%d] = %v, scalar loop %v", n, scale, wd, step, i, p[i], wantP[i])
					}
					st := adam.Snapshot()
					if firstBitDiff(st.Vecs[0], wantM) >= 0 || firstBitDiff(st.Vecs[1], wantV) >= 0 {
						t.Fatalf("Adam n=%d scale=%g wd=%g step %d: moments differ from the scalar loop", n, scale, wd, step)
					}

					mom.Step(q, g, lr)
					momentumStepRef(wantQ, g, wantMV, lr, 0.9, wd)
					if i := firstBitDiff(q, wantQ); i >= 0 {
						t.Fatalf("Momentum n=%d scale=%g wd=%g step %d: params[%d] = %v, scalar loop %v", n, scale, wd, step, i, q[i], wantQ[i])
					}
					if firstBitDiff(mom.Snapshot().Vecs[0], wantMV) >= 0 {
						t.Fatalf("Momentum n=%d scale=%g wd=%g step %d: velocity differs from the scalar loop", n, scale, wd, step)
					}
				}
			}
		}
	}
}

// TestStepAfterBadRestorePanics: state vectors that do not match the
// model — what a doctored checkpoint restores — must make the next Step
// panic in Go, whatever the direction of the mismatch; so must a
// gradient of the wrong length. Nil vectors restore a fresh optimizer.
func TestStepAfterBadRestorePanics(t *testing.T) {
	const n = 64
	vec := func(k int) []float32 { return make([]float32, k) }
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	for name, tc := range map[string]struct {
		opt   Optimizer
		state State
		bad   bool
	}{
		"adam short m":     {NewAdam(), State{Step: 3, Vecs: [][]float32{vec(n - 8), vec(n)}}, true},
		"adam long v":      {NewAdam(), State{Step: 3, Vecs: [][]float32{vec(n), vec(n + 8)}}, true},
		"adam m without v": {NewAdam(), State{Step: 3, Vecs: [][]float32{vec(n), nil}}, true},
		"adam v without m": {NewAdam(), State{Step: 3, Vecs: [][]float32{nil, vec(n)}}, true},
		"adam nil":         {NewAdam(), State{Vecs: [][]float32{nil, nil}}, false},
		"adam no vectors":  {NewAdam(), State{}, false},
		"adam exact":       {NewAdam(), State{Step: 3, Vecs: [][]float32{vec(n), vec(n)}}, false},
		"momentum short v": {NewMomentum(0.9), State{Vecs: [][]float32{vec(n - 1)}}, true},
		"momentum long v":  {NewMomentum(0.9), State{Vecs: [][]float32{vec(n + 1)}}, true},
		"momentum nil":     {NewMomentum(0.9), State{Vecs: [][]float32{nil}}, false},
		"momentum exact":   {NewMomentum(0.9), State{Vecs: [][]float32{vec(n)}}, false},
	} {
		tc.opt.Restore(tc.state)
		if got := panics(func() { tc.opt.Step(vec(n), vec(n), 1e-3) }); got != tc.bad {
			t.Errorf("%s: Step panicked = %v, want %v", name, got, tc.bad)
		}
	}
	for _, opt := range []Optimizer{NewAdam(), NewMomentum(0.9)} {
		if !panics(func() { opt.Step(vec(n), vec(n-8), 1e-3) }) {
			t.Errorf("%s: Step accepted %d gradients for %d params", opt.Name(), n-8, n)
		}
		if !panics(func() { opt.Clone().Step(vec(n), vec(n+8), 1e-3) }) {
			t.Errorf("%s: Step accepted %d gradients for %d params", opt.Name(), n+8, n)
		}
	}
}

// shardRow is one case of the §4.3 property behind Table 1's partitioned
// update: cut the parameters at layer boundaries (Layout.SplitLayerAligned),
// give each shard its own optimizer over its Window of the layout, and the
// update is bitwise the monolithic one — LAMB's per-layer trust ratios
// included, so "we do not have to modify the code of the underlying
// optimizer". More parts than layers leaves shards empty; they are skipped.
type shardRow struct {
	name   string
	layout tensor.Layout
	parts  int
	mk     func(tensor.Layout) Optimizer
}

var (
	sixLayers = tensor.NewLayout(
		[]string{"embed", "enc0", "enc1", "enc2", "enc3", "head"},
		[]int{64, 128, 128, 96, 96, 40},
	)
	newLAMB = func(l tensor.Layout) Optimizer { return NewLAMB(l) }
	newAdam = func(tensor.Layout) Optimizer { return NewAdam() }
)

func TestLayerAlignedLAMBShardsMatchMonolithic(t *testing.T) {
	checkShardsMatchMonolithic(t, []shardRow{
		{"lamb/1", sixLayers, 1, newLAMB}, {"lamb/2", sixLayers, 2, newLAMB},
		{"lamb/3", sixLayers, 3, newLAMB}, {"lamb/4", sixLayers, 4, newLAMB},
		{"lamb/6", sixLayers, 6, newLAMB},
	})
}

func TestLayerAlignedAdamShardsMatchMonolithic(t *testing.T) {
	checkShardsMatchMonolithic(t, []shardRow{{"adam/4", sixLayers, 4, newAdam}})
}

func TestLayerAlignedShardsMorePartsThanLayers(t *testing.T) {
	two := tensor.NewLayout([]string{"a", "b"}, []int{10, 10})
	checkShardsMatchMonolithic(t, []shardRow{{"lamb/2-layers/5", two, 5, newLAMB}})
}

func checkShardsMatchMonolithic(t *testing.T, rows []shardRow) {
	t.Helper()
	for _, row := range rows {
		rng := rand.New(rand.NewSource(42))
		n := row.layout.TotalSize()
		mono, g := make([]float32, n), make([]float32, n)
		for i := range mono {
			mono[i] = rng.Float32()*2 - 1
			g[i] = rng.Float32()*0.2 - 0.1
		}
		sharded := tensor.Clone(mono)
		whole := row.mk(row.layout)
		ranges := row.layout.SplitLayerAligned(row.parts)
		shards := make([]Optimizer, len(ranges))
		for i, r := range ranges {
			shards[i] = row.mk(row.layout.Window(r[0], r[1]))
		}
		for step := 0; step < 5; step++ {
			whole.Step(mono, g, 0.01)
			for i, r := range ranges {
				if r[1] > r[0] {
					shards[i].Step(sharded[r[0]:r[1]], g[r[0]:r[1]], 0.01)
				}
			}
		}
		if i := firstBitDiff(sharded, mono); i >= 0 {
			t.Fatalf("%s: sharded params[%d] = %v, monolithic %v", row.name, i, sharded[i], mono[i])
		}
	}
}
