// Package b calls into a.
package b

import "fixture/internal/a"

func run() {
	a.Shared()
	_ = a.Wired(a.Option{})
}

// shadow's local a is no package: its Lonely field calls nothing.
func shadow() int {
	a := struct{ Lonely int }{}
	return a.Lonely
}
