// Package othermod is its own module, as bench/ is: the walker skips it.
package othermod

func Outside() {}
