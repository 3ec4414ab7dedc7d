package tensor

import "fmt"

// GEMM tiling parameters. The kernels block the k and j loops so the
// active panel of B (gemmKC×gemmNC float64 ≈ 256 KiB) stays cache-
// resident while a row panel of the output is accumulated, and shard row
// panels of the output across the worker pool above a flop cutoff.
// Within one output element the k-summation always runs in ascending
// order, so the blocked and parallel kernels produce bit-identical
// results to the serial i-k-j loop regardless of tile sizes or worker
// count.
const (
	// gemmKC is the k-dimension tile length.
	gemmKC = 128
	// gemmNC is the j-dimension tile length.
	gemmNC = 256
	// gemmParallelCutoff is the m*k*n flop product below which GEMM
	// stays on the caller's goroutine: fork/join overhead dominates
	// under it.
	gemmParallelCutoff = 64 * 64 * 64
)

// matMul computes C = A·B for rank-2 tensors A (m×k) and B (k×n).
func matMul(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("%w: matmul needs rank-2 tensors, got %v and %v", errShape, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: matmul inner dims %d != %d", errShape, k, k2)
	}
	out := rentRaw(m, n)
	gemm(out.data, a.data, b.data, m, k, n)
	return out, nil
}

// MatMulInto computes dst = A·B, reusing dst's storage. dst must be a
// rank-2 m×n tensor; its previous contents are overwritten.
func MatMulInto(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("%w: matmul needs rank-2 tensors, got %v and %v", errShape, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("%w: matmul inner dims %d != %d", errShape, k, k2)
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul dst %v, want [%d %d]", errShape, dst.shape, m, n)
	}
	gemm(dst.data, a.data, b.data, m, k, n)
	return nil
}

// gemm computes dst = A·B, picking the serial kernel for small products
// and sharding row panels across the worker pool for large ones.
func gemm(dst, a, b []float64, m, k, n int) {
	if m*k*n < gemmParallelCutoff || m == 1 || IdleWorkers() == 0 {
		matmulInto(dst, a, b, m, k, n)
		return
	}
	grain := gemmParallelCutoff / (k * n)
	if grain < 1 {
		grain = 1
	}
	parallelFor(m, grain, func(lo, hi int) {
		gemmPanel(dst, a, b, lo, hi, k, n)
	})
}

// matmulInto computes dst = A·B with A m×k and B k×n, both row-major.
// The i-k-j loop order keeps the inner loop streaming over contiguous
// rows of B and dst. This is the small-matrix fast path and the
// single-worker reference kernel: the inner loop is a branch-free
// multiply-accumulate (sparsity in pruned weights is not special-cased
// here — skipping zeros defeats vectorization; the blocked kernel level
// is where structured sparsity would be exploited).
func matmulInto(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		di := dst[i*n : (i+1)*n]
		clear(di)
		ai := a[i*k : (i+1)*k]
		for kk := 0; kk < k; kk++ {
			axpy64(di, b[kk*n:(kk+1)*n], ai[kk])
		}
	}
}

// axpy64 computes di[j] += av·bk[j], the inner loop of every float64 GEMM
// panel here. The AVX2 body multiplies, then adds, per element like the
// scalar tail (no FMA), so which one ran never shows in a bit.
func axpy64(di, bk []float64, av float64) {
	bk = bk[:len(di)]
	j := 0
	if useSIMD && len(di) >= 4 {
		j = len(di) &^ 3
		axpyF64AVX2(&di[0], &bk[0], av, j)
	}
	for ; j < len(di); j++ {
		di[j] += av * bk[j]
	}
}

// gemmPanel computes rows [i0,i1) of dst = A·B with cache blocking over
// j (gemmNC) and k (gemmKC). Per output element the k loop still runs
// 0..k-1 in order: j/k tiling only reorders which elements are touched
// when, not the summation order, keeping results bit-identical to
// matmulInto.
func gemmPanel(dst, a, b []float64, i0, i1, k, n int) {
	for jb := 0; jb < n; jb += gemmNC {
		jEnd := jb + gemmNC
		if jEnd > n {
			jEnd = n
		}
		for i := i0; i < i1; i++ {
			clear(dst[i*n+jb : i*n+jEnd])
		}
		for kb := 0; kb < k; kb += gemmKC {
			kEnd := kb + gemmKC
			if kEnd > k {
				kEnd = k
			}
			for i := i0; i < i1; i++ {
				di := dst[i*n+jb : i*n+jEnd]
				ai := a[i*k : (i+1)*k]
				for kk := kb; kk < kEnd; kk++ {
					axpy64(di, b[kk*n+jb:kk*n+jEnd], ai[kk])
				}
			}
		}
	}
}

// matMulTransA computes C = Aᵀ·B for A (k×m) and B (k×n), yielding m×n.
func matMulTransA(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("%w: matmulTransA needs rank-2 tensors, got %v and %v", errShape, a.shape, b.shape)
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: matmulTransA inner dims %d != %d", errShape, k, k2)
	}
	out := rentRaw(m, n)
	gemmTransA(out.data, a.data, b.data, k, m, n)
	return out, nil
}

// gemmTransA computes dst (m×n) = Aᵀ·B for A k×m, B k×n. The serial
// kernel keeps the seed's kk-outer order (one row of A and B per step,
// streaming dst); the parallel variant shards dst rows, keeping the
// per-element kk-ascending summation order.
func gemmTransA(dst, a, b []float64, k, m, n int) {
	if m*k*n < gemmParallelCutoff || m == 1 || IdleWorkers() == 0 {
		clear(dst[:m*n])
		for kk := 0; kk < k; kk++ {
			ak := a[kk*m : (kk+1)*m]
			bk := b[kk*n : (kk+1)*n]
			for i, av := range ak {
				axpy64(dst[i*n:(i+1)*n], bk, av)
			}
		}
		return
	}
	grain := gemmParallelCutoff / (k * n)
	if grain < 1 {
		grain = 1
	}
	parallelFor(m, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			clear(dst[i*n : (i+1)*n])
		}
		for kk := 0; kk < k; kk++ {
			bk := b[kk*n : (kk+1)*n]
			ak := a[kk*m : (kk+1)*m]
			for i := lo; i < hi; i++ {
				axpy64(dst[i*n:(i+1)*n], bk, ak[i])
			}
		}
	})
}

// matMulTransB computes C = A·Bᵀ for A (m×k) and B (n×k), yielding m×n.
func matMulTransB(a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, fmt.Errorf("%w: matmulTransB needs rank-2 tensors, got %v and %v", errShape, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: matmulTransB inner dims %d != %d", errShape, k, k2)
	}
	out := rentRaw(m, n)
	gemmTransB(out.data, a.data, b.data, m, k, n)
	return out, nil
}

// matMulTransBInto computes dst = A·Bᵀ into an existing m×n tensor.
func matMulTransBInto(dst, a, b *Tensor) error {
	if a.Rank() != 2 || b.Rank() != 2 {
		return fmt.Errorf("%w: matmulTransB needs rank-2 tensors, got %v and %v", errShape, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		return fmt.Errorf("%w: matmulTransB inner dims %d != %d", errShape, k, k2)
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmulTransB dst %v, want [%d %d]", errShape, dst.shape, m, n)
	}
	gemmTransB(dst.data, a.data, b.data, m, k, n)
	return nil
}

// gemmTransB computes dst (m×n) = A·Bᵀ for A m×k, B n×k: independent
// row-dot-products, sharded across output rows when large. Each element
// is a single kk-ascending dot product in both paths, so results are
// bit-identical at any worker count.
func gemmTransB(dst, a, b []float64, m, k, n int) {
	if m*k*n < gemmParallelCutoff || m == 1 || IdleWorkers() == 0 {
		transBPanel(dst, a, b, 0, m, k, n)
		return
	}
	grain := gemmParallelCutoff / (k * n)
	if grain < 1 {
		grain = 1
	}
	parallelFor(m, grain, func(lo, hi int) {
		transBPanel(dst, a, b, lo, hi, k, n)
	})
}

// transBPanel computes dst rows [lo,hi) of A·Bᵀ as row dot products. A
// top-level function (not a closure) so the serial path stays
// allocation-free.
func transBPanel(dst, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		di := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b[j*k : (j+1)*k]
			s := 0.0
			for kk, av := range ai {
				s += av * bj[kk]
			}
			di[j] = s
		}
	}
}
