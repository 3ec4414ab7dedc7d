package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBaseCategoriesMatchTableII(t *testing.T) {
	cats := BaseCategories()
	if len(cats) != 60 {
		t.Fatalf("got %d base categories, want 60", len(cats))
	}
	counts := map[string]int{}
	for i, c := range cats {
		if c.ID != i {
			t.Fatalf("category %d has ID %d", i, c.ID)
		}
		counts[c.Group]++
	}
	want := map[string]int{
		"vehicle": 12, "wild-animal": 18, "snake": 10, "cat": 6, "household": 14,
	}
	for g, n := range want {
		if counts[g] != n {
			t.Fatalf("group %s has %d categories, want %d", g, counts[g], n)
		}
	}
}

func TestNovelCategoryGetsNextID(t *testing.T) {
	cats := BaseCategories()
	novel := NovelCategory(cats, "mushroom", "grocery")
	if novel.ID != 60 {
		t.Fatalf("novel ID %d, want 60", novel.ID)
	}
	if novel.name != "mushroom" || novel.Group != "grocery" {
		t.Fatalf("novel = %+v", novel)
	}
}

func TestSampleShapeAndDeterminism(t *testing.T) {
	g := DefaultGenerator()
	cat := BaseCategories()[0]
	x1 := g.sample(cat, rand.New(rand.NewSource(1)))
	x2 := g.sample(cat, rand.New(rand.NewSource(1)))
	if x1.Rank() != 3 || x1.Dim(0) != 3 || x1.Dim(1) != 16 || x1.Dim(2) != 16 {
		t.Fatalf("sample shape %v, want [3 16 16]", x1.Shape())
	}
	for i := range x1.Data() {
		if x1.Data()[i] != x2.Data()[i] {
			t.Fatal("same seed produced different images")
		}
	}
	x3 := g.sample(cat, rand.New(rand.NewSource(2)))
	same := true
	for i := range x1.Data() {
		if x1.Data()[i] != x3.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical images (no jitter/noise)")
	}
}

func TestSameGroupSharesTexture(t *testing.T) {
	// Two categories of the same group must be more similar (in expectation)
	// than two categories of different groups: the shared low-level grating
	// dominates the pixel correlation.
	g := Generator{ImageSize: 16, Noise: 0.0}
	cats := BaseCategories()
	veh1, veh2 := cats[0], cats[1] // both vehicles
	var snake Category
	for _, c := range cats {
		if c.Group == "snake" {
			snake = c
			break
		}
	}
	rng := rand.New(rand.NewSource(3))
	a := g.sample(veh1, rng)
	b := g.sample(veh2, rng)
	c := g.sample(snake, rng)
	distSame := 0.0
	distDiff := 0.0
	for i := range a.Data() {
		distSame += math.Abs(a.Data()[i] - b.Data()[i])
		distDiff += math.Abs(a.Data()[i] - c.Data()[i])
	}
	if distSame >= distDiff {
		t.Fatalf("same-group distance %v >= cross-group %v", distSame, distDiff)
	}
}

func TestGenerateSplitSizes(t *testing.T) {
	cats := BaseCategories()[:5]
	sp := Generate(DefaultGenerator(), cats, 4, 2, 7)
	if len(sp.TrainX) != 20 || len(sp.trainY) != 20 {
		t.Fatalf("train size %d, want 20", len(sp.TrainX))
	}
	if len(sp.TestX) != 10 {
		t.Fatalf("test size %d, want 10", len(sp.TestX))
	}
	if len(sp.categories) != 5 {
		t.Fatalf("%d categories, want 5", len(sp.categories))
	}
	counts := map[int]int{}
	for _, y := range sp.trainY {
		counts[y]++
	}
	for _, c := range cats {
		if counts[c.ID] != 4 {
			t.Fatalf("class %d has %d train examples, want 4", c.ID, counts[c.ID])
		}
	}
}

func TestBatchStacksImages(t *testing.T) {
	cats := BaseCategories()[:2]
	sp := Generate(DefaultGenerator(), cats, 3, 1, 8)
	x, y, err := sp.Batch([]int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if y[0] != sp.trainY[0] || y[1] != sp.trainY[4] {
		t.Fatalf("labels %v", y)
	}
	per := sp.TrainX[0].Len()
	for i := 0; i < per; i++ {
		if x.Data()[i] != sp.TrainX[0].Data()[i] {
			t.Fatal("batch data mismatch")
		}
	}
}

func TestBatchErrors(t *testing.T) {
	cats := BaseCategories()[:1]
	sp := Generate(DefaultGenerator(), cats, 2, 1, 9)
	if _, _, err := sp.Batch(nil); err == nil {
		t.Fatal("empty batch should error")
	}
	if _, _, err := sp.Batch([]int{99}); err == nil {
		t.Fatal("out-of-range index should error")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		p := Shuffle(n, rng)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// DefaultGenerator returns the test-scale generator (16×16 RGB, moderate
// noise).
func DefaultGenerator() Generator {
	return Generator{ImageSize: 16, Noise: 0.25}
}
