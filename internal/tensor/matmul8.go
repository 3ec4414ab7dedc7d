package tensor

// Int8 GEMM with int32 accumulation: the integer half of the quantized
// kernel layer. Operands are symmetric-quantized int8 (no zero points),
// products are exact in int32 (127·127·k fits for any k the engine
// meets: k < 2^17 leaves headroom of 2^31/127² ≈ 133k), and integer
// addition is associative — so unlike the float kernels the result is
// exactly equal to the naive triple loop regardless of tiling, unroll or
// worker count. The B panel is one byte per element (gemmKC×gemmNC ≈
// 32 KiB, L1-resident), which is where the speedup over f64 comes from.

// GemmI8 computes dst = A·B for row-major int8 A (m×k) and B (k×n),
// accumulating exactly in int32. dst must have at least m*n elements;
// previous contents are overwritten. Results are exact (and therefore
// identical at any worker count).
func GemmI8(dst []int32, a, b []int8, m, k, n int) {
	if m*k*n < gemmParallelCutoff || m == 1 || IdleWorkers() == 0 {
		gemmPanel8(dst, a, b, k, 1, 0, m, k, n)
		return
	}
	grain := gemmParallelCutoff / (k * n)
	if grain < 1 {
		grain = 1
	}
	parallelFor(m, grain, func(lo, hi int) {
		gemmPanel8(dst, a, b, k, 1, lo, hi, k, n)
	})
}

// gemmPanel8 computes rows [i0,i1) of dst = A·B with the same j/k
// blocking as the float kernels and a 4-wide k unroll. Sign extension of
// the int8 loads is a single instruction; the four partial products per
// element are summed before the dst update, quartering accumulator
// traffic. A is read through the strides (ars, aks) like gemmPanel32's.
func gemmPanel8(dst []int32, a, b []int8, ars, aks, i0, i1, k, n int) {
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
					quadAxpy8(di,
						b[kk*n+jb:kk*n+jEnd],
						b[(kk+1)*n+jb:(kk+1)*n+jEnd],
						b[(kk+2)*n+jb:(kk+2)*n+jEnd],
						b[(kk+3)*n+jb:(kk+3)*n+jEnd],
						int32(ai[kk*aks]), int32(ai[(kk+1)*aks]), int32(ai[(kk+2)*aks]), int32(ai[(kk+3)*aks]))
				}
				for ; kk < kEnd; kk++ {
					av := int32(ai[kk*aks])
					bk := b[kk*n+jb : kk*n+jEnd]
					bk = bk[:len(di)]
					for j := range di {
						di[j] += av * int32(bk[j])
					}
				}
			}
		}
	}
}

// quadAxpy8 applies four fused int8 axpy rows to one int32 dst strip:
// di[j] += a0·b0[j] + ... + a3·b3[j], exact in int32 on both the AVX2
// and scalar paths.
func quadAxpy8(di []int32, b0, b1, b2, b3 []int8, a0, a1, a2, a3 int32) {
	b0 = b0[:len(di)]
	b1 = b1[:len(di)]
	b2 = b2[:len(di)]
	b3 = b3[:len(di)]
	j := 0
	if useSIMD && len(di) >= 8 {
		aa := [4]int32{a0, a1, a2, a3}
		j = len(di) &^ 7
		quadAxpyI8AVX2(&di[0], &b0[0], &b1[0], &b2[0], &b3[0], &aa[0], j)
	}
	for ; j < len(di); j++ {
		di[j] += a0*int32(b0[j]) + a1*int32(b1[j]) + a2*int32(b2[j]) + a3*int32(b3[j])
	}
}

// dotI8 is the unrolled int8 dot product (exact in int32) used by the
// linear (A·Bᵀ) path.
func dotI8(a, b []int8) int32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int32
	kk := 0
	for ; kk+3 < len(a); kk += 4 {
		s0 += int32(a[kk]) * int32(b[kk])
		s1 += int32(a[kk+1]) * int32(b[kk+1])
		s2 += int32(a[kk+2]) * int32(b[kk+2])
		s3 += int32(a[kk+3]) * int32(b[kk+3])
	}
	var s int32
	for ; kk < len(a); kk++ {
		s += int32(a[kk]) * int32(b[kk])
	}
	return s0 + s1 + s2 + s3 + s
}
