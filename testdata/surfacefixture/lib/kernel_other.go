//go:build !amd64

package lib

func Kernel() {}
