package tensor

// Int8 GEMM with int32 accumulation: the integer half of the quantized
// kernel layer. Operands are symmetric-quantized int8 (no zero points),
// products are exact in int32 (128·128·k fits for any k the engine
// meets: k < 2^17 leaves headroom of 2^31/128² = 131k), and integer
// addition is associative — so unlike the float kernels the result is
// exactly equal to the naive triple loop regardless of tiling, unroll or
// worker count. B is one byte per element, an eighth of f64's.

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

// gemmPanel8 computes rows [i0,i1) of dst = A·B. Integer sums are
// exact, so the AVX2 tiles (gemmTiles8) and the portable panel below —
// any order, any tiling — give the same answer. A is read through the
// strides (ars, aks) like gemmPanel32's.
func gemmPanel8(dst []int32, a, b []int8, ars, aks, i0, i1, k, n int) {
	if useSIMD && k > 0 {
		offs := scratchI32.get(k)
		matrixOffsets(offs, n)
		gemmTiles8(dst[i0*n:], n, a, ars, aks, i0, i1, b, offs, n)
		scratchI32.put(offs)
		return
	}
	// The portable panel: the float kernels' j/k blocking and a 4-wide k
	// unroll whose four products are summed before the dst update.
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
					a0, a1 := int32(ai[kk*aks]), int32(ai[(kk+1)*aks])
					a2, a3 := int32(ai[(kk+2)*aks]), int32(ai[(kk+3)*aks])
					b0 := b[kk*n+jb:][:len(di)]
					b1 := b[(kk+1)*n+jb:][:len(di)]
					b2 := b[(kk+2)*n+jb:][:len(di)]
					b3 := b[(kk+3)*n+jb:][:len(di)]
					for j := range di {
						di[j] += a0*int32(b0[j]) + a1*int32(b1[j]) + a2*int32(b2[j]) + a3*int32(b3[j])
					}
				}
				for ; kk < kEnd; kk++ {
					av := int32(ai[kk*aks])
					bk := b[kk*n+jb:][:len(di)]
					for j := range di {
						di[j] += av * int32(bk[j])
					}
				}
			}
		}
	}
}

// gemmTiles8 is gemmPanel8 on the vector unit, with gemmTiles32's
// operands: rows [i0,i1) of A·B into dst[(i-i0)*ldd:], B read through the
// ascending tap offsets offs over lanes [0,n). Register tiles of 4 rows ×
// 16 lanes of int32 sums are held across the whole k loop, two taps per
// VPMADDWD. Each group of rows is widened once into pooled scratch as
// int16 tap pairs (dword p*4+r: taps 2p and 2p+1 of row r, the high word
// zero past an odd k), so the tile broadcasts a row's pair with one
// VPBROADCASTD. Remainders follow gemmTiles32: a last group of 2–3 rows
// through the 4-row tile (only real rows stored), a lone last row through
// the 1-row tile, and a ragged last group of lanes through scratch zero
// padded to 16 and a stack tile.
func gemmTiles8(dst []int32, ldd int, a []int8, ars, aks, i0, i1 int, b []int8, offs []int32, n int) {
	k, nv := len(offs), n&^15
	if i0 >= i1 {
		return
	}
	_ = dst[(i1-i0-1)*ldd+n-1]
	ap := scratchI32.get(4 * ((k + 1) / 2))
	var bt []int8
	var bo []int32
	if nv < n {
		bt, bo = scratchI8.get(16*k), scratchI32.get(k)
		for kk, o := range offs {
			t := bt[kk*16:][:16]
			clear(t[copy(t, b[int(o)+nv:][:n-nv]):])
		}
		matrixOffsets(bo, 16)
	}
	if nv > 0 {
		_ = b[int(offs[k-1])+nv-1] // the offsets ascend: every tap's lanes are in b
	}
	var tile [4 * 16]int32
	i := i0
	for ; i+1 < i1; i += 4 {
		rows := min(4, i1-i)
		for r := 0; r < 4; r++ {
			packPairs(ap[r:], 4, a[min(i+r, i1-1)*ars:], aks, k)
		}
		d := dst[(i-i0)*ldd:]
		if nv > 0 {
			tileI8x4AVX2(&d[0], ldd, &ap[0], &b[0], &offs[0], k, nv, rows)
		}
		if bt != nil {
			tileI8x4AVX2(&tile[0], 16, &ap[0], &bt[0], &bo[0], k, 16, rows)
			for r := 0; r < rows; r++ {
				copy(d[r*ldd+nv:r*ldd+n], tile[r*16:])
			}
		}
	}
	if i < i1 {
		packPairs(ap, 1, a[i*ars:], aks, k)
		d := dst[(i-i0)*ldd:]
		if nv > 0 {
			tileI8x1AVX2(&d[0], &ap[0], &b[0], &offs[0], k, nv)
		}
		if bt != nil {
			tileI8x1AVX2(&tile[0], &ap[0], &bt[0], &bo[0], k, 16)
			copy(d[nv:n], tile[:])
		}
	}
	scratchI32.put(bo)
	scratchI8.put(bt)
	scratchI32.put(ap)
}

// packPairs writes the k taps ar[kk*aks] of one row as int16 pairs into
// dst[p*step] for p < (k+1)/2: tap 2p in the low word, 2p+1 (or zero past
// k) in the high word.
func packPairs(dst []int32, step int, ar []int8, aks, k int) {
	p := 0
	if aks == 1 {
		// Row-major A, the common case: the taps are contiguous.
		ar = ar[:k]
		for kk := 1; kk < len(ar); kk += 2 {
			dst[p*step] = int32(uint16(ar[kk-1])) | int32(ar[kk])<<16
			p++
		}
	} else {
		for kk := 0; kk+1 < k; kk, p = kk+2, p+1 {
			dst[p*step] = int32(uint16(ar[kk*aks])) | int32(ar[(kk+1)*aks])<<16
		}
	}
	if k%2 == 1 {
		dst[p*step] = int32(uint16(ar[(k-1)*aks]))
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
