// Package fixture is the root of a module laid out for the caller
// check: one case of each of its rules.
package fixture

import "fixture/internal/a"

// Shown is called by an Example only.
func Shown() {}

// TestedOnly is called by a plain test only.
func TestedOnly() {}

// Result is the root's alias of a.Outcome.
type Result = a.Outcome
