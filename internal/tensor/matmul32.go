package tensor

// Float32 GEMM: the same shard structure as the float64 kernels in
// matmul.go, with two deliberate differences. First, operands are packed
// float32, so B and the streamed A/dst rows move half the bytes. Second,
// every element is summed in quartets — four taps' products added
// together before they join the element's sum — which is what lets the
// portable panel touch dst only every fourth tap. The per-element
// summation grouping depends only on k (never on worker count or on
// which kernel ran), so results are bit-identical at any parallelism and
// on either path, just not bit-identical to the f64 kernel (property
// tests bound the relative error instead).

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

// gemmPanel32 computes rows [i0,i1) of dst = A·B. Every element is
// summed in one fixed order: from +0, one quartet of taps
// (((a0·b0 + a1·b1) + a2·b2) + a3·b3) at a time, the quartets
// gemmKC-aligned, then the k%4 tail one tap at a time. The grouping
// depends only on k and the tile constants, never on the row sharding or
// on which kernel ran: the AVX2 tiles (gemmTiles32) and the portable
// panel below produce the same bits. A is read as a[i*ars+kk*aks]: (k, 1)
// for a row-major m×k matrix, (1, m) for one stored transposed. Only its
// scalars are read, so either costs the same arithmetic; the vector axis
// is always B's and dst's contiguous n.
func gemmPanel32(dst, a, b []float32, ars, aks, i0, i1, k, n int) {
	if useSIMD && k > 0 {
		offs := scratchI32.get(k)
		matrixOffsets(offs, n)
		gemmTiles32(dst[i0*n:], n, a, ars, aks, i0, i1, b, offs, n)
		scratchI32.put(offs)
		return
	}
	// The portable panel: j/k cache blocking (the f32 B tile is
	// gemmKC×gemmNC×4 B ≈ 128 KiB), each quartet summed before it touches
	// dst.
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
					a0, a1, a2, a3 := ai[kk*aks], ai[(kk+1)*aks], ai[(kk+2)*aks], ai[(kk+3)*aks]
					b0 := b[kk*n+jb:][:len(di)]
					b1 := b[(kk+1)*n+jb:][:len(di)]
					b2 := b[(kk+2)*n+jb:][:len(di)]
					b3 := b[(kk+3)*n+jb:][:len(di)]
					for j := range di {
						di[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
					}
				}
				for ; kk < kEnd; kk++ {
					av := ai[kk*aks]
					bk := b[kk*n+jb:][:len(di)]
					for j := range di {
						di[j] += av * bk[j]
					}
				}
			}
		}
	}
}

// gemmTiles32 is gemmPanel32 on the vector unit: rows [i0,i1) of A·B into
// dst, row i at dst[(i-i0)*ldd:], over lanes [0,n) of B read through the
// ascending tap offsets offs (see tileF32x4AVX2) — a matrix, or a padded
// image on its output grid. Register tiles of 4 rows × 8 lanes keep
// their sums in YMM across the whole k loop and store them once, where
// the portable panel loads and stores its strip of sums every fourth
// tap. The tile reads A in place through one pointer per row and the tap
// stride, so neither orientation is copied. A last group of 2–3 rows runs
// through the 4-row tile, its last row repeated into tile rows that are
// never stored: B streams once either way, and that is what such a
// remainder costs (measured against one 1-row tile per row: 1.2× faster
// at two rows, 1.7× at three). A lone last row runs through the 1-row
// tile. A ragged last group of lanes is copied, zero padded to 8, into
// scratch and computed into a stack tile, of which only the real lanes
// are kept. None of this moves a tap across a quartet.
func gemmTiles32(dst []float32, ldd int, a []float32, ars, aks, i0, i1 int, b []float32, offs []int32, n int) {
	k, nv := len(offs), n&^7
	if i0 >= i1 {
		return
	}
	_ = dst[(i1-i0-1)*ldd+n-1]
	var bt []float32
	var bo []int32
	if nv < n {
		bt, bo = scratchF32.get(8*k), scratchI32.get(k)
		for kk, o := range offs {
			t := bt[kk*8:][:8]
			clear(t[copy(t, b[int(o)+nv:][:n-nv]):])
		}
		matrixOffsets(bo, 8)
	}
	if nv > 0 {
		_ = b[int(offs[k-1])+nv-1] // the offsets ascend: every tap's lanes are in b
	}
	var tile [4 * 8]float32
	i := i0
	for ; i+1 < i1; i += 4 {
		rows, last := min(4, i1-i), i1-1
		a0, a1 := &a[i*ars], &a[(i+1)*ars]
		a2, a3 := &a[min(i+2, last)*ars], &a[min(i+3, last)*ars]
		d := dst[(i-i0)*ldd:]
		if nv > 0 {
			tileF32x4AVX2(&d[0], ldd, a0, a1, a2, a3, aks, &b[0], &offs[0], k, nv, rows)
		}
		if bt != nil {
			tileF32x4AVX2(&tile[0], 8, a0, a1, a2, a3, aks, &bt[0], &bo[0], k, 8, rows)
			for r := 0; r < rows; r++ {
				copy(d[r*ldd+nv:r*ldd+n], tile[r*8:])
			}
		}
	}
	if i < i1 {
		d := dst[(i-i0)*ldd:]
		if nv > 0 {
			tileF32x1AVX2(&d[0], &a[i*ars], aks, &b[0], &offs[0], k, nv)
		}
		if bt != nil {
			tileF32x1AVX2(&tile[0], &a[i*ars], aks, &bt[0], &bo[0], k, 8)
			copy(d[nv:n], tile[:])
		}
	}
	scratchI32.put(bo)
	scratchF32.put(bt)
}

// matrixOffsets fills offs with the tap offsets of a row-major matrix
// whose rows are ld elements apart.
func matrixOffsets(offs []int32, ld int) {
	for kk := range offs {
		offs[kk] = int32(kk * ld)
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
