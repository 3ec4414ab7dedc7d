//go:build amd64

package lib

// Kernel is declared once per build tag; the walker lists it once.
func Kernel() {}
