// Package fixture is the root of a module laid out for the caller
// check: one case of each of its rules.
package fixture

// Shown is called by an Example only.
func Shown() {}

// TestedOnly is called by a plain test only.
func TestedOnly() {}
