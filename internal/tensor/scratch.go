package tensor

import (
	"math/bits"
	"sync"
)

// Scratch arenas: freelists of float64 slices (bucketed by power-of-two
// capacity) and of Tensor headers. The convolution and GEMM kernels draw
// their im2col/col2im patch buffers and per-shard gradient accumulators
// from here, and the inference forward path rents whole activation
// tensors, so a steady-state Forward performs no heap allocation. The
// freelists are mutex-guarded rather than sync.Pool-based so that Get/Put
// themselves stay allocation-free (sync.Pool boxes the slice header on
// every Put).

// maxScratchClass bounds the pooled capacity classes: slices larger than
// 2^maxScratchClass elements (2 GiB of float64) are never pooled.
const maxScratchClass = 28

// maxFreePerClass bounds retention per size class so transient peaks
// (e.g. one huge batch) do not pin memory forever.
const maxFreePerClass = 32

type scratchClass struct {
	mu   sync.Mutex
	free [][]float64
}

var scratch [maxScratchClass + 1]scratchClass

// sizeClass returns the smallest c with 1<<c >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// getF64 returns a length-n float64 slice with power-of-two capacity,
// reusing pooled storage when available. Contents are NOT zeroed.
func getF64(n int) []float64 {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	if c > maxScratchClass {
		return make([]float64, n)
	}
	sc := &scratch[c]
	sc.mu.Lock()
	if last := len(sc.free) - 1; last >= 0 {
		s := sc.free[last]
		sc.free = sc.free[:last]
		sc.mu.Unlock()
		return s[:n]
	}
	sc.mu.Unlock()
	return make([]float64, n, 1<<c)
}

// putF64 returns a slice obtained from getF64 to its size class. Slices
// with non-power-of-two capacity (not ours) are dropped silently.
func putF64(s []float64) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1
	if cls > maxScratchClass {
		return
	}
	sc := &scratch[cls]
	sc.mu.Lock()
	if len(sc.free) < maxFreePerClass {
		sc.free = append(sc.free, s[:c])
	}
	sc.mu.Unlock()
}

// tensorFree recycles Tensor headers (struct plus shape slice) so Rent
// does not allocate at steady state.
var tensorFree struct {
	mu   sync.Mutex
	free []*Tensor
}

// rentHeader returns a recycled Tensor header carrying a copy of shape.
func rentHeader(shape []int) *Tensor {
	tensorFree.mu.Lock()
	var t *Tensor
	if last := len(tensorFree.free) - 1; last >= 0 {
		t = tensorFree.free[last]
		tensorFree.free = tensorFree.free[:last]
	}
	tensorFree.mu.Unlock()
	if t == nil {
		t = &Tensor{}
	}
	t.shape = append(t.shape[:0], shape...)
	t.pooled = true
	return t
}

// rentRaw returns a pooled tensor with unspecified contents. Internal
// kernels that fully overwrite their destination use it to skip the
// Rent zeroing pass.
func rentRaw(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dimension in Rent")
		}
		n *= d
	}
	t := rentHeader(shape)
	t.data = getF64(n)
	return t
}

// RentRows returns a view of rows [lo,hi) of x's leading axis. It shares
// x's storage, which must outlive it; only the header is pooled, and
// Release recycles just that. Sharding a batch this way allocates nothing.
func RentRows(x *Tensor, lo, hi int) *Tensor {
	per := len(x.data) / x.shape[0]
	t := rentHeader(x.shape)
	t.shape[0] = hi - lo
	t.data = x.data[lo*per : hi*per : hi*per]
	t.borrowed = true
	return t
}

// Rent returns a zero-filled tensor whose backing storage comes from the
// package scratch pool. It is shape-compatible with New but intended for
// short-lived activations: pass the tensor to Release when it is no
// longer referenced and its storage is recycled. A rented tensor that is
// never released is simply reclaimed by the garbage collector.
func Rent(shape ...int) *Tensor {
	t := rentRaw(shape...)
	clear(t.data)
	return t
}

// RentLike returns a zero-filled pooled tensor with u's shape.
func RentLike(u *Tensor) *Tensor {
	t := rentRaw(u.shape...)
	clear(t.data)
	return t
}

// Release returns a rented tensor's storage to the scratch pool. It is a
// no-op for nil tensors, tensors not obtained from Rent (e.g. New or
// fromSlice results, or views), and tensors already released, so chain
// code can call it unconditionally. The tensor must not be used — and no
// view of it may exist — after Release.
func Release(t *Tensor) {
	if t == nil || !t.pooled || t.data == nil {
		return
	}
	if !t.borrowed {
		putF64(t.data)
	}
	t.data = nil
	t.pooled, t.borrowed = false, false
	tensorFree.mu.Lock()
	if len(tensorFree.free) < maxFreePerClass {
		tensorFree.free = append(tensorFree.free, t)
	}
	tensorFree.mu.Unlock()
}
