// Package dataset generates the synthetic structured image data standing
// in for the paper's ImageNet subset (Table II: 60 base categories in 5
// groups) and the novel-task classes of the motivation experiments
// ("mushroom" for groceries, "electric guitar" for musical instruments).
//
// Images are built from two feature levels mirroring the transfer-learning
// property the paper exploits: a *group-level* low-frequency texture
// shared by all categories in a group (the "low-level features" early DNN
// layers learn) and a *category-level* arrangement of high-frequency
// shapes (the "high-level features" of late layers), plus Gaussian pixel
// noise. Networks pre-trained on the base categories therefore transfer
// their early layers to novel categories, which is exactly what CONFIG
// B–E rely on.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"offloadnn/internal/tensor"
)

// Category is one object class.
type Category struct {
	// ID is the class index used as the training label.
	ID int
	// name is a human-readable class name.
	name string
	// Group is the Table-II object group the class belongs to.
	Group string
}

// Table II group sizes: 12 vehicles, 18 wild animals, 10 snakes, 6 cats,
// 14 household objects — 60 categories total.
var tableIIGroups = []struct {
	group string
	count int
}{
	{"vehicle", 12},
	{"wild-animal", 18},
	{"snake", 10},
	{"cat", 6},
	{"household", 14},
}

// BaseCategories returns the 60 base categories of Table II.
func BaseCategories() []Category {
	var out []Category
	id := 0
	for _, g := range tableIIGroups {
		for i := 0; i < g.count; i++ {
			out = append(out, Category{
				ID:    id,
				name:  fmt.Sprintf("%s-%02d", g.group, i+1),
				Group: g.group,
			})
			id++
		}
	}
	return out
}

// NovelCategory appends a new class (e.g., the paper's grocery "mushroom"
// or musical-instrument "electric guitar") after the given existing set.
func NovelCategory(existing []Category, name, group string) Category {
	return Category{ID: len(existing), name: name, Group: group}
}

// groupSeed hashes a group name to a deterministic texture seed.
func groupSeed(group string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range group {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// Generator synthesizes images for categories.
type Generator struct {
	// ImageSize is the square image side (pixels).
	ImageSize int
	// Noise is the Gaussian pixel-noise standard deviation.
	Noise float64
}

// sample draws one image of the category as a (3, S, S) tensor.
func (g Generator) sample(cat Category, rng *rand.Rand) *tensor.Tensor {
	s := g.ImageSize
	img := tensor.New(3, s, s)
	grng := rand.New(rand.NewSource(groupSeed(cat.Group)))
	// Group texture: fixed orientation/frequency grating per channel.
	var theta, freq [3]float64
	var tint [3]float64
	for c := 0; c < 3; c++ {
		theta[c] = grng.Float64() * math.Pi
		freq[c] = 0.5 + grng.Float64()*1.5
		tint[c] = 0.3 + grng.Float64()*0.4
	}
	// Category blobs: deterministic layout from the category identity.
	crng := rand.New(rand.NewSource(groupSeed(cat.Group)*31 + int64(cat.ID)*977 + 7))
	const nBlobs = 3
	var bx, by, br, bv [nBlobs]float64
	var bc [nBlobs]int
	for i := 0; i < nBlobs; i++ {
		bx[i] = crng.Float64() * float64(s)
		by[i] = crng.Float64() * float64(s)
		br[i] = 1.5 + crng.Float64()*float64(s)/5
		bv[i] = 0.8 + crng.Float64()*0.8
		bc[i] = crng.Intn(3)
	}
	// Per-sample jitter: small random translation of the blob layout.
	jx := (rng.Float64() - 0.5) * 2
	jy := (rng.Float64() - 0.5) * 2

	for c := 0; c < 3; c++ {
		st, ct := math.Sincos(theta[c])
		for y := 0; y < s; y++ {
			for x := 0; x < s; x++ {
				u := (float64(x)*ct + float64(y)*st) * freq[c] * 2 * math.Pi / float64(s)
				v := tint[c] * math.Sin(u)
				for i := 0; i < nBlobs; i++ {
					if bc[i] != c {
						continue
					}
					dx := float64(x) - bx[i] - jx
					dy := float64(y) - by[i] - jy
					v += bv[i] * math.Exp(-(dx*dx+dy*dy)/(2*br[i]*br[i]))
				}
				v += rng.NormFloat64() * g.Noise
				img.Set(v, c, y, x)
			}
		}
	}
	return img
}

// Split holds a labeled train/test partition over a category set.
type Split struct {
	categories []Category
	TrainX     []*tensor.Tensor
	trainY     []int
	TestX      []*tensor.Tensor
	TestY      []int
}

// Generate builds a split with perClassTrain training and perClassTest
// test images per category, deterministically from the seed.
func Generate(g Generator, cats []Category, perClassTrain, perClassTest int, seed int64) *Split {
	rng := rand.New(rand.NewSource(seed))
	sp := &Split{categories: append([]Category(nil), cats...)}
	for _, cat := range cats {
		for i := 0; i < perClassTrain; i++ {
			sp.TrainX = append(sp.TrainX, g.sample(cat, rng))
			sp.trainY = append(sp.trainY, cat.ID)
		}
		for i := 0; i < perClassTest; i++ {
			sp.TestX = append(sp.TestX, g.sample(cat, rng))
			sp.TestY = append(sp.TestY, cat.ID)
		}
	}
	return sp
}

// Batch stacks the given example indices of the training set into an
// (N, 3, S, S) tensor and a label slice.
func (s *Split) Batch(indices []int) (*tensor.Tensor, []int, error) {
	return stack(s.TrainX, s.trainY, indices)
}

// TestBatch stacks test-set examples.
func (s *Split) TestBatch(indices []int) (*tensor.Tensor, []int, error) {
	return stack(s.TestX, s.TestY, indices)
}

func stack(xs []*tensor.Tensor, ys []int, indices []int) (*tensor.Tensor, []int, error) {
	if len(indices) == 0 {
		return nil, nil, fmt.Errorf("dataset: empty batch")
	}
	for _, idx := range indices {
		if idx < 0 || idx >= len(xs) {
			return nil, nil, fmt.Errorf("dataset: index %d out of range [0,%d)", idx, len(xs))
		}
	}
	shape := xs[indices[0]].Shape()
	out := tensor.New(append([]int{len(indices)}, shape...)...)
	labels := make([]int, len(indices))
	per := xs[indices[0]].Len()
	for i, idx := range indices {
		if idx < 0 || idx >= len(xs) {
			return nil, nil, fmt.Errorf("dataset: index %d out of range [0,%d)", idx, len(xs))
		}
		copy(out.Data()[i*per:(i+1)*per], xs[idx].Data())
		labels[i] = ys[idx]
	}
	return out, labels, nil
}

// Shuffle returns a permutation of [0,n) drawn from rng.
func Shuffle(n int, rng *rand.Rand) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx
}
