package edge

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"offloadnn/internal/dnn"
)

// ErrNotFound reports a model absent from the repository.
var ErrNotFound = errors.New("edge: model not found")

// Repository is the edge's DNN repository (Fig. 4): trained models —
// compositions of shareable blocks — stored by name as binary weight
// artifacts (dnn.SaveArtifact), under a directory or in memory, and
// loaded when the controller activates the blocks of an admitted
// configuration. It is safe for concurrent use.
type Repository struct {
	dir string

	mu    sync.RWMutex
	blobs map[string][]byte // encoded artifacts of a memory-only repository
}

// NewRepository creates a repository. dir may be empty for a memory-only
// store; otherwise models live under dir as <name>.dnnw files.
func NewRepository(dir string) *Repository {
	return &Repository{dir: dir, blobs: make(map[string][]byte)}
}

// validName rejects names that would escape the repository directory.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("edge: empty model name")
	}
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("edge: invalid model name %q", name)
	}
	return nil
}

func (r *Repository) path(name string) string {
	return filepath.Join(r.dir, name+".dnnw")
}

// Store encodes the model under the name, replacing any model already
// there. A directory-backed repository writes the file atomically.
func (r *Repository) Store(name string, m *dnn.Model) error {
	if err := validName(name); err != nil {
		return err
	}
	if m == nil {
		return fmt.Errorf("edge: nil model for %q", name)
	}
	var buf bytes.Buffer
	if err := dnn.SaveArtifact(&buf, m); err != nil {
		return fmt.Errorf("edge: store %q: %w", name, err)
	}
	if r.dir == "" {
		r.mu.Lock()
		r.blobs[name] = buf.Bytes()
		r.mu.Unlock()
		return nil
	}
	f, err := os.CreateTemp(r.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("edge: store %q: %w", name, err)
	}
	_, err = f.Write(buf.Bytes())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), r.path(name))
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("edge: store %q: %w", name, err)
	}
	return nil
}

// Load decodes a model by name. Every call builds a fresh model whose
// parameter tensors alias one decoded buffer, so the caller owns the
// result outright and may adopt its blocks without copying; the second
// result is that buffer's resident bytes. Corrupted artifacts are
// rejected by their per-block checksums.
func (r *Repository) Load(name string) (*dnn.Model, int64, error) {
	if err := validName(name); err != nil {
		return nil, 0, err
	}
	var src io.Reader
	if r.dir == "" {
		r.mu.RLock()
		blob, ok := r.blobs[name]
		r.mu.RUnlock()
		if !ok {
			return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		src = bytes.NewReader(blob)
	} else {
		f, err := os.Open(r.path(name))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
			}
			return nil, 0, fmt.Errorf("edge: load %q: %w", name, err)
		}
		defer f.Close()
		src = f
	}
	m, size, err := dnn.LoadArtifact(src)
	if err != nil {
		return nil, 0, fmt.Errorf("edge: load %q: %w", name, err)
	}
	return m, size, nil
}

// Delete removes a model. Deleting an absent model
// is a no-op.
func (r *Repository) Delete(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	r.mu.Lock()
	delete(r.blobs, name)
	r.mu.Unlock()
	if r.dir != "" {
		if err := os.Remove(r.path(name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("edge: delete %q: %w", name, err)
		}
	}
	return nil
}

// List returns the sorted names available.
func (r *Repository) List() ([]string, error) {
	var names []string
	if r.dir == "" {
		r.mu.RLock()
		for name := range r.blobs {
			names = append(names, name)
		}
		r.mu.RUnlock()
	} else {
		entries, err := os.ReadDir(r.dir)
		if err != nil {
			return nil, fmt.Errorf("edge: list: %w", err)
		}
		for _, e := range entries {
			if n, ok := strings.CutSuffix(e.Name(), ".dnnw"); ok && !e.IsDir() {
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}
