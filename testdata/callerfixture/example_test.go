package fixture_test

import (
	"testing"

	"fixture"
)

func ExampleShown() {
	fixture.Shown()
	// Output:
}

func TestTestedOnly(t *testing.T) { fixture.TestedOnly() }
