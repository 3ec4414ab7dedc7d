package fixture_test

import (
	"testing"

	"fixture"
)

func ExampleShown() {
	fixture.Shown()
	var r fixture.Result
	_ = r.Label()
	// Output:
}

func TestTestedOnly(t *testing.T) { fixture.TestedOnly() }
