package lib

import "testing"

// TestOnly and FromTest live in a _test.go file: no surface.
func TestOnly(t *testing.T) {}

func FromTest() {}
