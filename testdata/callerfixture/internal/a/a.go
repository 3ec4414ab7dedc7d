// Package a declares the names the caller check judges.
package a

import "net/http"

// Shared is called from the sibling package b.
func Shared() {}

// Lonely is called from its own package only.
func Lonely() {}

func use() {
	Lonely()
	o := Outcome{}
	o.Count = o.Inner()
}

// Wired is called from b, and allowlisted all the same: a stale line.
func Wired(o Option) Outcome { return Outcome{} }

// Option is named by Wired's parameter only.
type Option struct{}

// Outcome is named by Wired's result only.
type Outcome struct {
	Part  Part
	spare Spare
	// Count is set by its own package only.
	Count int
	// Kept has no caller and an allowlist line.
	Kept int
}

// Size is called from the sibling package b.
func (o Outcome) Size() int { return 0 }

// Inner is called from its own package only.
func (o Outcome) Inner() int { return 0 }

// Label is called by a root Example, through the alias fixture.Result.
func (o Outcome) Label() string { return "" }

// Used is called from b, and allowlisted all the same: a stale line.
func (o Outcome) Used() {}

// Part is named by Outcome's exported field only.
type Part int

// String implements fmt.Stringer: a call through the interface names it.
func (p Part) String() string { return "" }

// Weight implements b's weigher interface.
func (p Part) Weight() int { return int(p) }

// Spare is named by Outcome's unexported field only.
type Spare int

// Handler is named by b; ServeHTTP implements http.Handler.
type Handler struct{}

// ServeHTTP answers nothing.
func (Handler) ServeHTTP(http.ResponseWriter, *http.Request) {}

// Record tags a field for encoding/json, which reaches every field.
type Record struct {
	ID   string `json:"id"`
	Note string
}

// Exempt has no caller and an allowlist line.
func Exempt() {}

// Probed is called from b's tests only.
func Probed() {}

// ProbedAllowed is called from b's tests only, and allowlisted.
func ProbedAllowed() {}

// BenchOnly is called from the bench module's tests only.
func BenchOnly() {}
