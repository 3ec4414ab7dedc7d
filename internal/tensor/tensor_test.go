package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Rank() != 3 {
		t.Fatalf("Rank() = %d, want 3", tt.Rank())
	}
	if tt.Len() != 24 {
		t.Fatalf("Len() = %d, want 24", tt.Len())
	}
	got := tt.Shape()
	want := []int{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Shape() = %v, want %v", got, want)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3)
	tt.Set(7.5, 1, 2)
	if got := tt.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := tt.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestFromSliceValidation(t *testing.T) {
	if _, err := fromSlice([]float64{1, 2, 3}, 2, 2); !errors.Is(err, errShape) {
		t.Fatalf("FromSlice wrong length: err = %v, want ErrShape", err)
	}
	if _, err := fromSlice([]float64{1, 2}, 2, -1); !errors.Is(err, errShape) {
		t.Fatalf("FromSlice negative dim: err = %v, want ErrShape", err)
	}
	tt, err := fromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatalf("FromSlice valid: %v", err)
	}
	if tt.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3 (row-major)", tt.At(1, 0))
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b, err := a.reshape(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	b.Set(99, 0, 1)
	if a.At(0, 1) != 99 {
		t.Fatal("Reshape did not share storage")
	}
	if _, err := a.reshape(4, 2); !errors.Is(err, errShape) {
		t.Fatalf("Reshape bad size: err = %v, want ErrShape", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := MustFromSlice([]float64{1, 2}, 2)
	b := a.clone()
	b.Set(5, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestAddAndAXPY(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3}, 3)
	b := MustFromSlice([]float64{10, 20, 30}, 3)
	c, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{11, 22, 33}
	for i, w := range want {
		if c.At(i) != w {
			t.Fatalf("Add[%d] = %v, want %v", i, c.At(i), w)
		}
	}
	if err := a.AXPYInPlace(2, b); err != nil {
		t.Fatal(err)
	}
	want = []float64{21, 42, 63}
	for i, w := range want {
		if a.At(i) != w {
			t.Fatalf("AXPY[%d] = %v, want %v", i, a.At(i), w)
		}
	}
	bad := New(2)
	if err := a.AddInPlace(bad); !errors.Is(err, errShape) {
		t.Fatalf("AddInPlace shape mismatch: err = %v, want ErrShape", err)
	}
}

func TestSumMeanNorms(t *testing.T) {
	a := MustFromSlice([]float64{3, -4}, 2)
	if a.sum() != -1 {
		t.Fatalf("Sum = %v, want -1", a.sum())
	}
	if a.Mean() != -0.5 {
		t.Fatalf("Mean = %v, want -0.5", a.Mean())
	}
	if a.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v, want 4", a.MaxAbs())
	}
	if !almostEqual(a.L2Norm(), 5, 1e-12) {
		t.Fatalf("L2Norm = %v, want 5", a.L2Norm())
	}
}

func TestMatMulKnownValues(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c, err := matMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("MatMul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulShapeErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if _, err := matMul(a, b); !errors.Is(err, errShape) {
		t.Fatalf("MatMul inner mismatch: err = %v, want ErrShape", err)
	}
	if _, err := matMul(New(2), b); !errors.Is(err, errShape) {
		t.Fatalf("MatMul rank-1: err = %v, want ErrShape", err)
	}
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 5)
	b := New(4, 3)
	for i := range a.Data() {
		a.Data()[i] = rng.NormFloat64()
	}
	for i := range b.Data() {
		b.Data()[i] = rng.NormFloat64()
	}
	at, err := Transpose(a)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := matMul(at, b)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := matMulTransA(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !tensorsClose(direct, fused, 1e-12) {
		t.Fatal("MatMulTransA disagrees with explicit transpose")
	}

	c := New(6, 5)
	for i := range c.Data() {
		c.Data()[i] = rng.NormFloat64()
	}
	// a (4×5) · cᵀ (5×6)
	ct, err := Transpose(c)
	if err != nil {
		t.Fatal(err)
	}
	direct2, err := matMul(a, ct)
	if err != nil {
		t.Fatal(err)
	}
	fused2, err := matMulTransB(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if !tensorsClose(direct2, fused2, 1e-12) {
		t.Fatal("MatMulTransB disagrees with explicit transpose")
	}
}

func tensorsClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data() {
		if !almostEqual(a.Data()[i], b.Data()[i], tol) {
			return false
		}
	}
	return true
}

// Property: matmul is linear in its first argument, i.e.
// (A1+A2)·B == A1·B + A2·B.
func TestQuickMatMulLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a1, a2, b := New(m, k), New(m, k), New(k, n)
		for i := range a1.Data() {
			a1.Data()[i] = rng.NormFloat64()
			a2.Data()[i] = rng.NormFloat64()
		}
		for i := range b.Data() {
			b.Data()[i] = rng.NormFloat64()
		}
		sum, _ := Add(a1, a2)
		lhs, err := matMul(sum, b)
		if err != nil {
			return false
		}
		r1, _ := matMul(a1, b)
		r2, _ := matMul(a2, b)
		rhs, _ := Add(r1, r2)
		return tensorsClose(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(6), 1+rng.Intn(6)
		a := New(m, n)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		at, err := Transpose(a)
		if err != nil {
			return false
		}
		att, err := Transpose(at)
		if err != nil {
			return false
		}
		return tensorsClose(a, att, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	// 1×1 identity kernel leaves the input unchanged.
	x := MustFromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	w := MustFromSlice([]float64{1}, 1, 1, 1, 1)
	p := Conv2DParams{InChannels: 1, OutChannels: 1, Kernel: 1, Stride: 1}
	y, err := Conv2D(x, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if !tensorsClose(x, y, 0) {
		t.Fatalf("identity conv changed input: %v", y)
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3×3 input, 2×2 kernel of ones, stride 1, no padding → 2×2 window sums.
	x := MustFromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	w := MustFromSlice([]float64{1, 1, 1, 1}, 1, 1, 2, 2)
	p := Conv2DParams{InChannels: 1, OutChannels: 1, Kernel: 2, Stride: 1}
	y, err := Conv2D(x, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{12, 16, 24, 28}
	for i, wv := range want {
		if y.Data()[i] != wv {
			t.Fatalf("conv[%d] = %v, want %v", i, y.Data()[i], wv)
		}
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	w := MustFromSlice([]float64{1}, 1, 1, 1, 1)
	p := Conv2DParams{InChannels: 1, OutChannels: 1, Kernel: 1, Stride: 2, Padding: 1}
	y, err := Conv2D(x, w, nil, p)
	if err != nil {
		t.Fatal(err)
	}
	// Output 2×2 sampling padded grid at (0,0),(0,2),(2,0),(2,2) of a 4×4
	// padded image → corners are padding, center values picked.
	if y.Dim(2) != 2 || y.Dim(3) != 2 {
		t.Fatalf("conv out spatial = %dx%d, want 2x2", y.Dim(2), y.Dim(3))
	}
	want := []float64{0, 0, 0, 4}
	for i, wv := range want {
		if y.Data()[i] != wv {
			t.Fatalf("conv[%d] = %v, want %v", i, y.Data()[i], wv)
		}
	}
}

func TestConv2DBias(t *testing.T) {
	x := New(1, 1, 2, 2)
	w := MustFromSlice([]float64{1}, 1, 1, 1, 1)
	b := MustFromSlice([]float64{3}, 1)
	p := Conv2DParams{InChannels: 1, OutChannels: 1, Kernel: 1, Stride: 1}
	y, err := Conv2D(x, w, b, p)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range y.Data() {
		if v != 3 {
			t.Fatalf("conv+bias[%d] = %v, want 3", i, v)
		}
	}
}

func TestConv2DShapeErrors(t *testing.T) {
	p := Conv2DParams{InChannels: 2, OutChannels: 3, Kernel: 3, Stride: 1, Padding: 1}
	x := New(1, 1, 4, 4) // wrong channels
	w := New(3, 2, 3, 3)
	if _, err := Conv2D(x, w, nil, p); !errors.Is(err, errShape) {
		t.Fatalf("conv channel mismatch: err = %v, want ErrShape", err)
	}
	x2 := New(1, 2, 4, 4)
	wBad := New(3, 2, 5, 5)
	if _, err := Conv2D(x2, wBad, nil, p); !errors.Is(err, errShape) {
		t.Fatalf("conv weight mismatch: err = %v, want ErrShape", err)
	}
	pBad := Conv2DParams{InChannels: 2, OutChannels: 3, Kernel: 0, Stride: 1}
	if _, err := Conv2D(x2, w, nil, pBad); !errors.Is(err, errShape) {
		t.Fatalf("conv bad kernel: err = %v, want ErrShape", err)
	}
}

func TestMaxPool2DKnownValues(t *testing.T) {
	x := MustFromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	res, err := MaxPool2D(x, PoolParams{Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 8, 14, 16}
	for i, wv := range want {
		if res.Out.Data()[i] != wv {
			t.Fatalf("maxpool[%d] = %v, want %v", i, res.Out.Data()[i], wv)
		}
	}
}

func TestMaxPool2DBackwardRoutesToArgmax(t *testing.T) {
	x := MustFromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	res, err := MaxPool2D(x, PoolParams{Kernel: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	dy := MustFromSlice([]float64{10}, 1, 1, 1, 1)
	dx, err := res.Backward(dy)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 0, 10}
	for i, wv := range want {
		if dx.Data()[i] != wv {
			t.Fatalf("maxpool dx[%d] = %v, want %v", i, dx.Data()[i], wv)
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y, err := GlobalAvgPool2D(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("gap = %v, want [2.5 25]", y.Data())
	}
	dy := MustFromSlice([]float64{4, 8}, 1, 2)
	dx, err := GlobalAvgPool2DBackward(dy, []int{1, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if dx.Data()[i] != 1 {
			t.Fatalf("gap dx[%d] = %v, want 1", i, dx.Data()[i])
		}
	}
	for i := 4; i < 8; i++ {
		if dx.Data()[i] != 2 {
			t.Fatalf("gap dx[%d] = %v, want 2", i, dx.Data()[i])
		}
	}
}

func TestBatchNormTrainingNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := New(4, 3, 5, 5)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()*3 + 7
	}
	st := NewBatchNormState(3)
	res, err := BatchNorm2D(x, st, true)
	if err != nil {
		t.Fatal(err)
	}
	// Per-channel mean ≈ 0, variance ≈ 1 after normalization (gamma=1, beta=0).
	n, c, hw := 4, 3, 25
	for ch := 0; ch < c; ch++ {
		sum, sq := 0.0, 0.0
		for b := 0; b < n; b++ {
			off := (b*c + ch) * hw
			for _, v := range res.Out.Data()[off : off+hw] {
				sum += v
				sq += v * v
			}
		}
		cnt := float64(n * hw)
		mean := sum / cnt
		variance := sq/cnt - mean*mean
		if !almostEqual(mean, 0, 1e-9) {
			t.Fatalf("channel %d mean = %v, want 0", ch, mean)
		}
		if !almostEqual(variance, 1, 1e-3) {
			t.Fatalf("channel %d var = %v, want 1", ch, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	st := NewBatchNormState(1)
	st.RunningMean.Set(2, 0)
	st.RunningVar.Set(4, 0)
	x := MustFromSlice([]float64{2, 4, 0, 6}, 1, 1, 2, 2)
	res, err := BatchNorm2D(x, st, false)
	if err != nil {
		t.Fatal(err)
	}
	// (x-2)/sqrt(4+eps) ≈ (x-2)/2
	want := []float64{0, 1, -1, 2}
	for i, wv := range want {
		if !almostEqual(res.Out.Data()[i], wv, 1e-4) {
			t.Fatalf("bn eval[%d] = %v, want %v", i, res.Out.Data()[i], wv)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	x := MustFromSlice([]float64{-1, 0, 2}, 3)
	y, mask := ReLU(x)
	want := []float64{0, 0, 2}
	for i, wv := range want {
		if y.Data()[i] != wv {
			t.Fatalf("relu[%d] = %v, want %v", i, y.Data()[i], wv)
		}
	}
	dy := MustFromSlice([]float64{5, 5, 5}, 3)
	dx, err := ReLUBackward(dy, mask)
	if err != nil {
		t.Fatal(err)
	}
	wantDX := []float64{0, 0, 5}
	for i, wv := range wantDX {
		if dx.Data()[i] != wv {
			t.Fatalf("relu dx[%d] = %v, want %v", i, dx.Data()[i], wv)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	x := MustFromSlice([]float64{1, 2, 3, 1000, 1001, 1002}, 2, 3)
	y, err := softmax(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s := 0.0
		for j := 0; j < 3; j++ {
			v := y.At(i, j)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax[%d][%d] = %v out of range", i, j, v)
			}
			s += v
		}
		if !almostEqual(s, 1, 1e-12) {
			t.Fatalf("softmax row %d sums to %v", i, s)
		}
	}
	// Shift invariance: rows 0 and 1 differ by constant 999, so probs equal.
	for j := 0; j < 3; j++ {
		if !almostEqual(y.At(0, j), y.At(1, j), 1e-12) {
			t.Fatal("softmax is not shift-invariant")
		}
	}
}

func TestCrossEntropyUniformLogits(t *testing.T) {
	x := New(2, 4) // uniform logits → loss = ln(4)
	res, err := CrossEntropy(x, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Loss, math.Log(4), 1e-12) {
		t.Fatalf("CE loss = %v, want ln(4) = %v", res.Loss, math.Log(4))
	}
}

func TestCrossEntropyLabelValidation(t *testing.T) {
	x := New(1, 3)
	if _, err := CrossEntropy(x, []int{5}); !errors.Is(err, errShape) {
		t.Fatalf("CE bad label: err = %v, want ErrShape", err)
	}
	if _, err := CrossEntropy(x, []int{0, 1}); !errors.Is(err, errShape) {
		t.Fatalf("CE label count: err = %v, want ErrShape", err)
	}
}

func TestLinearKnownValues(t *testing.T) {
	x := MustFromSlice([]float64{1, 2}, 1, 2)
	w := MustFromSlice([]float64{3, 4, 5, 6}, 2, 2) // rows are output neurons
	b := MustFromSlice([]float64{10, 20}, 2)
	y, err := Linear(x, w, b)
	if err != nil {
		t.Fatal(err)
	}
	// y0 = 1*3+2*4+10 = 21; y1 = 1*5+2*6+20 = 37
	if y.At(0, 0) != 21 || y.At(0, 1) != 37 {
		t.Fatalf("linear = %v, want [21 37]", y.Data())
	}
}

func TestArgmax(t *testing.T) {
	x := MustFromSlice([]float64{1, 5, 3, 9, 2, 4}, 2, 3)
	got, err := Argmax(x)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("argmax = %v, want [1 0]", got)
	}
}

func TestMustReshapeAndPanics(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.MustReshape(4)
	if b.Rank() != 1 || b.Dim(0) != 4 {
		t.Fatalf("MustReshape shape %v", b.Shape())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustReshape with bad size did not panic")
		}
	}()
	a.MustReshape(3)
}

func TestMustFromSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromSlice with bad shape did not panic")
		}
	}()
	MustFromSlice([]float64{1}, 2)
}

func TestZeroAndFill(t *testing.T) {
	a := New(3)
	a.Fill(7)
	for _, v := range a.Data() {
		if v != 7 {
			t.Fatal("Fill failed")
		}
	}
	a.Zero()
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestStringPreview(t *testing.T) {
	a := New(3, 4) // 12 elements: preview truncates at 8
	s := a.String()
	if !strings.Contains(s, "Tensor[3x4]") {
		t.Fatalf("String() = %q", s)
	}
	if !strings.Contains(s, "...") {
		t.Fatalf("String() should truncate long tensors: %q", s)
	}
	small := MustFromSlice([]float64{1.5}, 1)
	if strings.Contains(small.String(), "...") {
		t.Fatal("small tensor should not truncate")
	}
}

func TestReLUInPlaceMatchesReLU(t *testing.T) {
	x := MustFromSlice([]float64{-2, 0, 3}, 3)
	y, wantMask := ReLU(x)
	inPlace := x.clone()
	gotMask := ReLUInPlace(inPlace)
	for i := range y.Data() {
		if inPlace.Data()[i] != y.Data()[i] {
			t.Fatalf("in-place relu differs at %d", i)
		}
		if gotMask[i] != wantMask[i] {
			t.Fatalf("mask differs at %d", i)
		}
	}
}

func TestInitializersProduceFiniteSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := New(16, 9)
	KaimingInit(w, 9, rng)
	if w.MaxAbs() == 0 {
		t.Fatal("Kaiming init left zeros")
	}
	for _, v := range w.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("Kaiming produced non-finite value")
		}
	}
	u := New(16, 9)
	XavierInit(u, 9, 16, rng)
	lim := math.Sqrt(6.0 / 25.0)
	for _, v := range u.Data() {
		if v < -lim || v > lim {
			t.Fatalf("Xavier value %v outside ±%v", v, lim)
		}
	}
}

func TestConvPoolParamValidation(t *testing.T) {
	x := New(1, 1, 4, 4)
	w := New(1, 1, 1, 1)
	bad := []Conv2DParams{
		{InChannels: 1, OutChannels: 0, Kernel: 1, Stride: 1},
		{InChannels: 1, OutChannels: 1, Kernel: 1, Stride: 0},
		{InChannels: 1, OutChannels: 1, Kernel: 1, Stride: 1, Padding: -1},
	}
	for i, p := range bad {
		if _, err := Conv2D(x, w, nil, p); !errors.Is(err, errShape) {
			t.Fatalf("bad conv params %d: err = %v", i, err)
		}
	}
	badPool := []PoolParams{
		{Kernel: 0, Stride: 1},
		{Kernel: 2, Stride: 0},
		{Kernel: 2, Stride: 1, padding: -1},
	}
	for i, p := range badPool {
		if _, err := MaxPool2D(x, p); !errors.Is(err, errShape) {
			t.Fatalf("bad pool params %d: err = %v", i, err)
		}
	}
}

// LinearInto computes y = x·Wᵀ + b into dst (shape N×Out) — the
// destination-reuse variant of Linear.
func LinearInto(dst, x, weight, bias *Tensor) error {
	if x.Rank() != 2 || weight.Rank() != 2 {
		return fmt.Errorf("%w: linear needs rank-2 x and weight, got %v and %v", errShape, x.shape, weight.shape)
	}
	n, in := x.shape[0], x.shape[1]
	out, in2 := weight.shape[0], weight.shape[1]
	if in != in2 {
		return fmt.Errorf("%w: linear input dim %d vs weight dim %d", errShape, in, in2)
	}
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != out) {
		return fmt.Errorf("%w: linear bias shape %v, want [%d]", errShape, bias.shape, out)
	}
	if err := matMulTransBInto(dst, x, weight); err != nil {
		return err
	}
	if bias != nil {
		for i := 0; i < n; i++ {
			row := dst.data[i*out : (i+1)*out]
			for j := range row {
				row[j] += bias.data[j]
			}
		}
	}
	return nil
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) (*Tensor, error) {
	if a.Rank() != 2 {
		return nil, fmt.Errorf("%w: transpose needs rank-2, got %v", errShape, a.shape)
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out, nil
}

// MustFromSlice is fromSlice but panics on error. Intended for tests and
// literals where the shape is statically known to be correct.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := fromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Add returns t + u element-wise.
func Add(t, u *Tensor) (*Tensor, error) {
	if !t.SameShape(u) {
		return nil, fmt.Errorf("%w: add %v and %v", errShape, t.shape, u.shape)
	}
	out := t.clone()
	for i := range out.data {
		out.data[i] += u.data[i]
	}
	return out, nil
}
