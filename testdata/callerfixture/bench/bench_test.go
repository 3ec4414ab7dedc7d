package bench

import (
	"testing"

	"fixture/internal/a"
)

func TestBench(t *testing.T) { a.BenchOnly() }
