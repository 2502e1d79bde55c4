// Package a is the fixture unreached's test scans.
package a

// Used is called by cmd/x.
func Used() int { return 1 }

// Dead has no caller.
func Dead() {}

// Orphan is named by nothing but its own method.
type Orphan struct{}

// Self names the type from inside it.
func (o *Orphan) Self() *Orphan { return o }

// Seam has callers only in another package's tests.
//
//unreached:testsupport the fixture's stand-in for a test seam
func Seam() {}

// Config has one field cmd/x sets, one only this package reads, and one
// exempted.
type Config struct {
	Set   int
	Unset int
	//unreached:testsupport the fixture's stand-in for a test knob
	Knob int
}

// New reads every field.
func New(c Config) int { return c.Set + c.Unset + c.Knob }

// QuietOptions is exempt as a whole, fields included.
//
//unreached:testsupport the fixture's stand-in for a test harness's options
type QuietOptions struct{ A int }

// Quiet reads the exempt struct's field.
func Quiet(o QuietOptions) int { return o.A }
