package tensor

import (
	"math/bits"
	"sync"
)

// Typed scratch arenas for the reduced-precision kernels: the same
// power-of-two freelist discipline as the float64 pool in scratch.go,
// instantiated per element type. The f32/i8 convolution paths rent their
// converted-image, im2col and accumulator buffers here, so a quantized
// Forward stays allocation-free at steady state exactly like the f64
// path.
type typedClass[T any] struct {
	mu   sync.Mutex
	free [][]T
}

type typedPool[T any] struct {
	classes [maxScratchClass + 1]typedClass[T]
}

// get returns a length-n slice with power-of-two capacity, reusing pooled
// storage when available. Contents are NOT zeroed.
func (p *typedPool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := sizeClass(n)
	if c > maxScratchClass {
		return make([]T, n)
	}
	sc := &p.classes[c]
	sc.mu.Lock()
	if last := len(sc.free) - 1; last >= 0 {
		s := sc.free[last]
		sc.free = sc.free[:last]
		sc.mu.Unlock()
		return s[:n]
	}
	sc.mu.Unlock()
	return make([]T, n, 1<<c)
}

// put returns a slice obtained from get to its size class. Slices with
// non-power-of-two capacity (not ours) are dropped silently.
func (p *typedPool[T]) put(s []T) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := bits.Len(uint(c)) - 1
	if cls > maxScratchClass {
		return
	}
	sc := &p.classes[cls]
	sc.mu.Lock()
	if len(sc.free) < maxFreePerClass {
		sc.free = append(sc.free, s[:c])
	}
	sc.mu.Unlock()
}

var (
	scratchF32 typedPool[float32]
	scratchI8  typedPool[int8]
	scratchI32 typedPool[int32]
)

// toF32 narrows src into dst (len(dst) >= len(src) elements are written
// for i < len(src)). The f32 conv path converts each image once here, so
// the 9x-overlapping im2col copy below it moves 4-byte floats.
func toF32(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}
