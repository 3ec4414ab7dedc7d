// Package lib holds one declaration of each kind the surface walker
// lists, and of each it must skip.
package lib

import "net/http"

const Limit = 3

const limitInternal = 4

var Default = Config{Size: Limit}

// Config has an exported field, an unexported one and an anonymous
// struct whose fields are listed under it.
type Config struct {
	Size   int
	hidden int
	Nested struct {
		Depth   int
		private bool
	}
}

func (c Config) Scaled() int { return c.Size * limitInternal }

func (c Config) unexportedMethod() int { return c.hidden }

type Source interface {
	Read() int
	reset()
}

// box is unexported: its exported method is no surface.
type box struct{}

func (box) Exported() {}

func New() *Config { return &Config{} }

func helper() {}

func Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/things", func(http.ResponseWriter, *http.Request) {})
}
