// Command x is the fixture's entry point.
package main

import "fixture/internal/a"

func main() { _ = a.Used() + a.New(a.Config{Set: 1}) + a.Quiet(a.QuietOptions{}) }
