package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad estimates dLoss/dParam via central finite differences for
// the element at flat index i of param, where loss() recomputes the forward
// pass from current parameter values.
func numericalGrad(param *Tensor, i int, loss func() float64) float64 {
	const h = 1e-5
	orig := param.Data()[i]
	param.Data()[i] = orig + h
	lp := loss()
	param.Data()[i] = orig - h
	lm := loss()
	param.Data()[i] = orig
	return (lp - lm) / (2 * h)
}

func checkGrad(t *testing.T, name string, analytic *Tensor, param *Tensor, loss func() float64) {
	t.Helper()
	for i := range param.Data() {
		num := numericalGrad(param, i, loss)
		ana := analytic.Data()[i]
		scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
		if math.Abs(num-ana)/scale > 1e-4 {
			t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, ana, num)
		}
	}
}

func randomize(t *Tensor, rng *rand.Rand) {
	for i := range t.Data() {
		t.Data()[i] = rng.NormFloat64()
	}
}

func TestGradConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := Conv2DParams{InChannels: 2, OutChannels: 3, Kernel: 3, Stride: 2, Padding: 1}
	x := New(2, 2, 5, 5)
	w := New(3, 2, 3, 3)
	b := New(3)
	randomize(x, rng)
	randomize(w, rng)
	randomize(b, rng)
	labels := []int{1, 2}

	forward := func() float64 {
		y, err := Conv2D(x, w, b, p)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := GlobalAvgPool2D(y)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := CrossEntropy(pooled, labels)
		if err != nil {
			t.Fatal(err)
		}
		return ce.Loss
	}

	// Analytic gradients.
	y, err := Conv2D(x, w, b, p)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := GlobalAvgPool2D(y)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := CrossEntropy(pooled, labels)
	if err != nil {
		t.Fatal(err)
	}
	dPooled := ce.Backward()
	dy, err := GlobalAvgPool2DBackward(dPooled, y.Shape())
	if err != nil {
		t.Fatal(err)
	}
	grads, err := Conv2DBackward(dy, x, w, p, true)
	if err != nil {
		t.Fatal(err)
	}

	checkGrad(t, "conv.w", grads.DW, w, forward)
	checkGrad(t, "conv.b", grads.DB, b, forward)
	checkGrad(t, "conv.x", grads.DX, x, forward)
}

func TestGradLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := New(3, 4)
	w := New(5, 4)
	b := New(5)
	randomize(x, rng)
	randomize(w, rng)
	randomize(b, rng)
	labels := []int{0, 2, 4}

	forward := func() float64 {
		y, err := Linear(x, w, b)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := CrossEntropy(y, labels)
		if err != nil {
			t.Fatal(err)
		}
		return ce.Loss
	}

	y, err := Linear(x, w, b)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := CrossEntropy(y, labels)
	if err != nil {
		t.Fatal(err)
	}
	dy := ce.Backward()
	grads, err := LinearBackward(dy, x, w, true)
	if err != nil {
		t.Fatal(err)
	}

	checkGrad(t, "linear.w", grads.DW, w, forward)
	checkGrad(t, "linear.b", grads.DB, b, forward)
	checkGrad(t, "linear.x", grads.DX, x, forward)
}

func TestGradBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := New(3, 2, 3, 3)
	randomize(x, rng)
	st := NewBatchNormState(2)
	randomize(st.Gamma, rng)
	randomize(st.Beta, rng)
	labels := []int{0, 1, 0}

	forward := func() float64 {
		// Keep running stats fixed across evaluations: save and restore.
		rm, rv := st.RunningMean.clone(), st.RunningVar.clone()
		defer func() {
			copy(st.RunningMean.Data(), rm.Data())
			copy(st.RunningVar.Data(), rv.Data())
		}()
		res, err := BatchNorm2D(x, st, true)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := GlobalAvgPool2D(res.Out)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := CrossEntropy(pooled, labels)
		if err != nil {
			t.Fatal(err)
		}
		return ce.Loss
	}

	res, err := BatchNorm2D(x, st, true)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := GlobalAvgPool2D(res.Out)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := CrossEntropy(pooled, labels)
	if err != nil {
		t.Fatal(err)
	}
	dPooled := ce.Backward()
	dy, err := GlobalAvgPool2DBackward(dPooled, res.Out.Shape())
	if err != nil {
		t.Fatal(err)
	}
	grads, err := res.Backward(dy)
	if err != nil {
		t.Fatal(err)
	}

	checkGrad(t, "bn.gamma", grads.DGamma, st.Gamma, forward)
	checkGrad(t, "bn.beta", grads.DBeta, st.Beta, forward)
	checkGrad(t, "bn.x", grads.DX, x, forward)
}

func TestGradMaxPoolAndReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := New(2, 2, 4, 4)
	randomize(x, rng)
	labels := []int{1, 0}

	forward := func() float64 {
		a, _ := ReLU(x)
		mp, err := MaxPool2D(a, PoolParams{Kernel: 2, Stride: 2})
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := GlobalAvgPool2D(mp.Out)
		if err != nil {
			t.Fatal(err)
		}
		ce, err := CrossEntropy(pooled, labels)
		if err != nil {
			t.Fatal(err)
		}
		return ce.Loss
	}

	a, mask := ReLU(x)
	mp, err := MaxPool2D(a, PoolParams{Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := GlobalAvgPool2D(mp.Out)
	if err != nil {
		t.Fatal(err)
	}
	ce, err := CrossEntropy(pooled, labels)
	if err != nil {
		t.Fatal(err)
	}
	dPooled := ce.Backward()
	dmp, err := GlobalAvgPool2DBackward(dPooled, mp.Out.Shape())
	if err != nil {
		t.Fatal(err)
	}
	da, err := mp.Backward(dmp)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := ReLUBackward(da, mask)
	if err != nil {
		t.Fatal(err)
	}

	// MaxPool argmax can flip under perturbation exactly at ties; random
	// normal data makes ties measure-zero, so the finite-difference check
	// is safe.
	checkGrad(t, "pool+relu.x", dx, x, forward)
}

func TestGradCrossEntropySumsToZeroPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := New(4, 6)
	randomize(x, rng)
	ce, err := CrossEntropy(x, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	dx := ce.Backward()
	for i := 0; i < 4; i++ {
		s := 0.0
		for j := 0; j < 6; j++ {
			s += dx.At(i, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("CE grad row %d sums to %v, want 0", i, s)
		}
	}
}
