package nn

import "math"

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits
// against integer labels, and the gradient dLoss/dLogits (softmax(p) -
// onehot, scaled by 1/batch so the resulting parameter gradient is the
// batch mean). The returned gradient buffer is freshly allocated.
func SoftmaxCrossEntropy(logits []float32, labels []int, batch, classes int) (float64, []float32) {
	grad := make([]float32, batch*classes)
	return softmaxCE(logits, labels, batch, classes, grad), grad
}

// softmaxCE returns the loss and overwrites grad (batch*classes values)
// with dLoss/dLogits.
func softmaxCE(logits []float32, labels []int, batch, classes int, grad []float32) float64 {
	if len(logits) != batch*classes || len(labels) != batch || len(grad) != batch*classes {
		panic("nn: SoftmaxCrossEntropy size mismatch")
	}
	var total float64
	inv := 1 / float64(batch)
	for s := 0; s < batch; s++ {
		row := logits[s*classes : (s+1)*classes]
		// Stable softmax.
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		lbl := labels[s]
		logp := float64(row[lbl]-maxv) - math.Log(sum)
		total -= logp
		g := grad[s*classes : (s+1)*classes]
		for c := 0; c < classes; c++ {
			p := math.Exp(float64(row[c]-maxv)) / sum
			g[c] = float32(p * inv)
		}
		g[lbl] -= float32(inv)
	}
	return total * inv
}
