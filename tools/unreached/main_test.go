package main

import (
	"strings"
	"testing"
)

// TestScanFlagsTheFixture runs the scan over testdata/mod: a function with no
// caller, a type named only by its own method and a config field only its own
// package reads are reported; what cmd/x names is not, nor is anything under
// an //unreached:testsupport line — a function, a field, a struct's fields.
func TestScanFlagsTheFixture(t *testing.T) {
	found, err := scan("testdata/mod")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{ // sorted as text
		"internal/a/a.go:11: exported a.Orphan has no non-test reference",
		"internal/a/a.go:25: exported a.Unset has no non-test reference",
		"internal/a/a.go:8: exported a.Dead has no non-test reference",
	}
	if strings.Join(found, "\n") != strings.Join(want, "\n") {
		t.Errorf("scan found:\n%s\nwant:\n%s", strings.Join(found, "\n"), strings.Join(want, "\n"))
	}
}
