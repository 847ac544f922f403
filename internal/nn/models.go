package nn

import "fmt"

// NewMLP builds a ReLU multilayer perceptron with the given per-layer
// widths (dims[0] is the input dimension, dims[len-1] the logit count).
func NewMLP(dims ...int) *Network {
	if len(dims) < 2 {
		panic("nn: NewMLP needs at least input and output dims")
	}
	var layers []Layer
	for i := 1; i < len(dims); i++ {
		layers = append(layers, NewDense(fmt.Sprintf("fc%d", i), dims[i-1], dims[i]))
		if i < len(dims)-1 {
			layers = append(layers, NewReLU(fmt.Sprintf("relu%d", i), dims[i]))
		}
	}
	return NewNetwork(layers...)
}

// NewLeNet5 builds the LeNet-5-shaped CNN of the paper's §5.4 case study
// for h×w single-channel images and the given class count: two
// conv+pool stages followed by three dense layers (120/84/classes),
// with tanh activations as in the original network. For inputs smaller
// than the original 28×28 the second stage shrinks its kernel (and
// skips its pool when the map is already 1×1) so the spatial dimensions
// never collapse to zero.
func NewLeNet5(h, w, classes int) *Network {
	conv1 := NewConv2D("conv1", 1, h, w, 6, 5)
	c1, h1, w1 := conv1.OutShape()
	act1 := NewTanh("tanh1", conv1.OutDim())
	pool1 := NewMaxPool2("pool1", c1, h1, w1)
	c1p, h1p, w1p := pool1.OutShape()

	k2 := 5
	if h1p < 6 || w1p < 6 {
		k2 = 3
	}
	if k2 > h1p || k2 > w1p {
		k2 = minInt2(h1p, w1p)
	}
	conv2 := NewConv2D("conv2", c1p, h1p, w1p, 16, k2)
	c2, h2, w2 := conv2.OutShape()
	act2 := NewTanh("tanh2", conv2.OutDim())

	layers := []Layer{conv1, act1, pool1, conv2, act2}
	flat := conv2.OutDim()
	if h2 >= 2 && w2 >= 2 {
		pool2 := NewMaxPool2("pool2", c2, h2, w2)
		layers = append(layers, pool2)
		flat = pool2.OutDim()
	}
	if flat == 0 {
		panic("nn: LeNet5 spatial dimensions collapsed; input too small")
	}
	layers = append(layers,
		NewDense("fc1", flat, 120), NewTanh("tanh3", 120),
		NewDense("fc2", 120, 84), NewTanh("tanh4", 84),
		NewDense("fc3", 84, classes),
	)
	return NewNetwork(layers...)
}

func minInt2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// NewResNetProxy builds the residual MLP classifier standing in for
// ResNet-50 in the convergence experiments (see DESIGN.md's substitution
// table): an input projection, `blocks` two-layer residual blocks of the
// given width, and a classifier head. Like ResNet, gradients flow through
// identity skips and the model has many named layers for per-layer
// Adasum.
func NewResNetProxy(inDim, classes, width, blocks int) *Network {
	layers := []Layer{
		NewDense("stem", inDim, width),
		NewReLU("stem_relu", width),
	}
	for b := 0; b < blocks; b++ {
		layers = append(layers, NewResidual(fmt.Sprintf("block%d", b),
			NewDense(fmt.Sprintf("block%d_fc1", b), width, width),
			NewReLU(fmt.Sprintf("block%d_relu", b), width),
			NewDense(fmt.Sprintf("block%d_fc2", b), width, width),
		))
		layers = append(layers, NewReLU(fmt.Sprintf("post%d_relu", b), width))
	}
	layers = append(layers, NewDense("head", width, classes))
	return NewNetwork(layers...)
}

// NewBERTProxy builds the deep LayerNorm MLP standing in for BERT-Large
// in the convergence experiments: `depth` blocks of
// Dense→ReLU→Dense→LayerNorm with residual skips, which gives LAMB its
// characteristic per-layer trust-ratio behaviour, plus a classification
// head over the masked-feature task.
func NewBERTProxy(inDim, classes, width, depth int) *Network {
	layers := []Layer{
		NewDense("embed", inDim, width),
	}
	for b := 0; b < depth; b++ {
		layers = append(layers, NewResidual(fmt.Sprintf("enc%d", b),
			NewDense(fmt.Sprintf("enc%d_ff1", b), width, width),
			NewReLU(fmt.Sprintf("enc%d_relu", b), width),
			NewDense(fmt.Sprintf("enc%d_ff2", b), width, width),
		))
		layers = append(layers, NewLayerNorm(fmt.Sprintf("enc%d_ln", b), width))
	}
	layers = append(layers, NewDense("head", width, classes))
	return NewNetwork(layers...)
}
