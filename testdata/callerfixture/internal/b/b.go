// Package b calls into a.
package b

import (
	"net/http"

	"fixture/internal/a"
)

func run() {
	a.Shared()
	o := a.Wired(a.Option{})
	_ = o.Part
	_ = o.Size()
	o.Used()
	var _ http.Handler = a.Handler{}
	_ = a.Record{}
}

// weigher is a module-declared interface a.Part implements.
type weigher interface{ Weight() int }

// shadow's local a is no package: its Lonely field calls nothing.
func shadow() int {
	a := struct{ Lonely int }{}
	return a.Lonely
}
