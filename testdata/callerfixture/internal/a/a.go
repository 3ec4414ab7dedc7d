// Package a declares the names the caller check judges.
package a

// Shared is called from the sibling package b.
func Shared() {}

// Lonely is called from its own package only.
func Lonely() {}

func use() { Lonely() }

// Wired is called from b, and allowlisted all the same: a stale line.
func Wired(o Option) Outcome { return Outcome{} }

// Option is named by Wired's parameter only.
type Option struct{}

// Outcome is named by Wired's result only.
type Outcome struct {
	Part  Part
	spare Spare
}

// Part is named by Outcome's exported field only.
type Part int

// Spare is named by Outcome's unexported field only.
type Spare int

// Exempt has no caller and an allowlist line.
func Exempt() {}

// Probed is called from b's tests only.
func Probed() {}

// ProbedAllowed is called from b's tests only, and allowlisted.
func ProbedAllowed() {}

// BenchOnly is called from the bench module's tests only.
func BenchOnly() {}
