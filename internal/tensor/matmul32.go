package tensor

// Float32 GEMM: the same panel/shard structure as the float64 kernels in
// matmul.go, with two deliberate differences. First, operands are packed
// float32, so the cache-resident B panel and the streamed A/dst rows move
// half the bytes — the dominant win on a memory-bound kernel. Second, the
// k loop is unrolled four-wide with the partial products summed before
// touching dst, quartering the dst load/store traffic. The per-element
// summation grouping depends only on the fixed gemmKC tiling (never on
// worker count), so results are bit-identical at any parallelism, just
// not bit-identical to the f64 kernel (property tests bound the relative
// error instead).

// GemmF32 computes dst = A·B for row-major float32 A (m×k) and B (k×n).
// dst must have at least m*n elements; previous contents are overwritten.
// Large products shard row panels across the worker pool; the summation
// grouping is independent of worker count, so results are deterministic.
func GemmF32(dst, a, b []float32, m, k, n int) {
	if m*k*n < gemmParallelCutoff || m == 1 || IdleWorkers() == 0 {
		gemmPanel32(dst, a, b, k, 1, 0, m, k, n)
		return
	}
	grain := gemmParallelCutoff / (k * n)
	if grain < 1 {
		grain = 1
	}
	parallelFor(m, grain, func(lo, hi int) {
		gemmPanel32(dst, a, b, k, 1, lo, hi, k, n)
	})
}

// gemmPanel32 computes rows [i0,i1) of dst = A·B with j/k cache blocking
// (the f32 B tile is gemmKC×gemmNC×4 B ≈ 128 KiB) and a 4-wide k unroll.
// The unroll groups each element's k sum as fixed (kb-aligned) quartets,
// so the grouping — and therefore the float result — depends only on k
// and the tile constants, never on the row sharding. A is read as
// a[i*ars+kk*aks]: (k, 1) for a row-major m×k matrix, (1, m) for one
// stored transposed. Only its scalars are read, so either costs the same
// arithmetic; the vector axis is always B's and dst's contiguous n.
func gemmPanel32(dst, a, b []float32, ars, aks, i0, i1, k, n int) {
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
				ai := a[i*ars:]
				kk := kb
				for ; kk+3 < kEnd; kk += 4 {
					quadAxpy32(di,
						b[kk*n+jb:kk*n+jEnd],
						b[(kk+1)*n+jb:(kk+1)*n+jEnd],
						b[(kk+2)*n+jb:(kk+2)*n+jEnd],
						b[(kk+3)*n+jb:(kk+3)*n+jEnd],
						ai[kk*aks], ai[(kk+1)*aks], ai[(kk+2)*aks], ai[(kk+3)*aks])
				}
				for ; kk < kEnd; kk++ {
					av := ai[kk*aks]
					bk := b[kk*n+jb : kk*n+jEnd]
					bk = bk[:len(di)]
					for j := range di {
						di[j] += av * bk[j]
					}
				}
			}
		}
	}
}

// quadAxpy32 applies four fused axpy rows to one dst strip:
// di[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j], left-associated.
// The AVX2 path computes the exact same association with VMULPS+VADDPS
// (no FMA), so both paths produce identical bits.
func quadAxpy32(di, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	b0 = b0[:len(di)]
	b1 = b1[:len(di)]
	b2 = b2[:len(di)]
	b3 = b3[:len(di)]
	j := 0
	if useSIMD && len(di) >= 8 {
		aa := [4]float32{a0, a1, a2, a3}
		j = len(di) &^ 7
		quadAxpyF32AVX2(&di[0], &b0[0], &b1[0], &b2[0], &b3[0], &aa[0], j)
	}
	for ; j < len(di); j++ {
		di[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// dotF32 is the 4-wide-unrolled float32 dot product used by the linear
// (A·Bᵀ) path; the fixed quartet grouping keeps it deterministic.
func dotF32(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	kk := 0
	for ; kk+3 < len(a); kk += 4 {
		s0 += a[kk] * b[kk]
		s1 += a[kk+1] * b[kk+1]
		s2 += a[kk+2] * b[kk+2]
		s3 += a[kk+3] * b[kk+3]
	}
	var s float32
	for ; kk < len(a); kk++ {
		s += a[kk] * b[kk]
	}
	return s0 + s1 + s2 + s3 + s
}
