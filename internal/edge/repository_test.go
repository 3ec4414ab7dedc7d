package edge

import (
	"errors"
	"os"
	"testing"

	"offloadnn/internal/dnn"
	"offloadnn/internal/tensor"
)

func testModel(seed int64) *dnn.Model {
	return dnn.BuildResNet18(dnn.ResNetConfig{
		InChannels: 3, NumClasses: 4, BaseWidth: 4,
		StageBlocks: [4]int{1, 1, 1, 1}, Seed: seed,
	})
}

// sameForward reports whether two models answer one fixed input bit for
// bit.
func sameForward(t *testing.T, a, b *dnn.Model) bool {
	t.Helper()
	x := tensor.New(1, 3, 8, 8)
	x.Fill(0.3)
	ya, err := a.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	yb, err := b.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ya.Data() {
		if ya.Data()[i] != yb.Data()[i] {
			return false
		}
	}
	return true
}

// TestRepositoryRoundTrip pins the one Store/Load pair on both backings:
// a stored model is listed and loads — from a second repository over the
// same directory too, the restart case — as a fresh single-buffer model
// that answers bit-identically.
func TestRepositoryRoundTrip(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		r := NewRepository(dir)
		m := testModel(2)
		if err := r.Store("traffic-v1", m); err != nil {
			t.Fatal(err)
		}
		if dir != "" {
			r = NewRepository(dir)
		}
		names, err := r.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 1 || names[0] != "traffic-v1" {
			t.Fatalf("dir %q: List = %v", dir, names)
		}
		loaded, size, err := r.Load("traffic-v1")
		if err != nil {
			t.Fatal(err)
		}
		if loaded == m {
			t.Fatalf("dir %q: Load returned the stored instance, want a fresh decode", dir)
		}
		if want := int64(m.ParamCount()) * 8; size < want {
			t.Fatalf("dir %q: weight bytes %d < param bytes %d", dir, size, want)
		}
		if got := cap(loaded.Blocks[0].Params()[0].Data()); int64(got)*8 != size {
			t.Fatalf("dir %q: first tensor backs %d elements, want the whole %d-byte section", dir, got, size)
		}
		if !sameForward(t, m, loaded) {
			t.Fatalf("dir %q: loaded model behaves differently", dir)
		}
		if _, _, err := r.Load("ghost"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("dir %q: missing model err = %v, want ErrNotFound", dir, err)
		}
	}
}

func TestRepositoryCorruptionRejected(t *testing.T) {
	r := NewRepository(t.TempDir())
	if err := r.Store("resnet", testModel(3)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(r.path("resnet"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x10
	if err := os.WriteFile(r.path("resnet"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Load("resnet"); err == nil {
		t.Fatal("corrupted artifact loaded without error")
	}
}

func TestRepositoryDelete(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		r := NewRepository(dir)
		if err := r.Store("m", testModel(3)); err != nil {
			t.Fatal(err)
		}
		if err := r.Delete("m"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Load("m"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("dir %q: deleted model err = %v, want ErrNotFound", dir, err)
		}
		if names, err := r.List(); err != nil || len(names) != 0 {
			t.Fatalf("dir %q: List after delete = %v, %v", dir, names, err)
		}
		// Idempotent.
		if err := r.Delete("m"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRepositoryRejectsBadNames(t *testing.T) {
	r := NewRepository(t.TempDir())
	for _, name := range []string{"", "../escape", "a/b", "."} {
		if err := r.Store(name, testModel(4)); err == nil {
			t.Fatalf("name %q should be rejected", name)
		}
		if _, _, err := r.Load(name); err == nil {
			t.Fatalf("load of %q should be rejected", name)
		}
	}
	if err := r.Store("nilmodel", nil); err == nil {
		t.Fatal("nil model should be rejected")
	}
}

func TestRepositoryReplace(t *testing.T) {
	r := NewRepository(t.TempDir())
	m1, m2 := testModel(5), testModel(6)
	if err := r.Store("m", m1); err != nil {
		t.Fatal(err)
	}
	if err := r.Store("m", m2); err != nil {
		t.Fatal(err)
	}
	got, _, err := r.Load("m")
	if err != nil {
		t.Fatal(err)
	}
	if !sameForward(t, m2, got) || sameForward(t, m1, got) {
		t.Fatal("replacement did not take effect")
	}
}
