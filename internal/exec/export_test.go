package exec

// ErrNoModel lets the external tests match a dropped task's answer.
var ErrNoModel = errNoModel
