package dnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"offloadnn/internal/tensor"
)

// forwardLogitsDigest is the SHA-256 of every logit TestForwardLogitsDigest
// computes, as the gathered-patch lowering computed them: the implicit
// form must reproduce it, and a kernel change that claims to keep every
// bit must leave it as it is.
const forwardLogitsDigest = "b63070d8d14a8c1c52b6b0305fd09347ea62443f633d12b00df6634d7da44ceb"

// TestForwardLogitsDigest pins the logits of both architectures at every
// precision, over the batch sizes that put tile remainders and uneven
// shards in play, through Forward and ForwardBatch at one and two
// workers, to one hash: the bits a kernel rewrite must not move. It runs
// on the AVX2 kernels and, under OFFLOADNN_NO_SIMD=1, on the portable
// ones — both must read the same digest, since the two compute the same
// sums. Only on amd64: the arm64 compiler may fuse a multiply and an add
// into one rounding, which moves the float bits there legitimately.
func TestForwardLogitsDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digest pins amd64 bits; arm64 may fuse multiply-add")
	}
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	resnet := DefaultResNetConfig()
	resnet.BaseWidth = 16
	x := CalibrationBatch(13, 3, 16, 16, 45)
	h := sha256.New()
	var word [8]byte
	for _, build := range []func() *Model{
		func() *Model { return BuildResNet18(resnet) },
		func() *Model { return BuildMobileNetV2(DefaultMobileNetConfig()) },
	} {
		for _, prec := range []tensor.Precision{tensor.F64, tensor.F32, tensor.I8} {
			m := build()
			if prec == tensor.I8 {
				if err := Calibrate(m, x); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.SetPrecision(prec); err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 2, 3, 5, 8, 13} {
				xb := CalibrationBatch(n, 3, 16, 16, 45) // a prefix of x
				for _, batched := range []bool{false, true} {
					for _, workers := range []int{1, 2} {
						tensor.SetParallelism(workers)
						var y *tensor.Tensor
						var err error
						if batched {
							y, err = m.ForwardBatch(xb)
						} else {
							y, err = m.Forward(xb, false)
						}
						if err != nil {
							t.Fatal(err)
						}
						for _, v := range y.Data() {
							binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
							h.Write(word[:])
						}
						tensor.Release(y)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != forwardLogitsDigest {
		t.Fatalf("logits digest (SIMD %v) = %s, want %s", tensor.SIMDEnabled(), got, forwardLogitsDigest)
	}
}
