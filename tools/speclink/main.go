// Command speclink keeps docs/PROTOCOL.md in sync with the wire constants.
//
// It parses internal/binproto with go/ast, collects every exported
// package-level constant that is part of the wire contract — opcodes (Op*),
// response marker (RespFlag), error codes (ErrCode*), condition flags
// (Flag*), batch status marker (EntryUnhealthy), protocol limits
// (Version, MaxFrameLen, MaxBatch), and the HTTP upgrade's three strings
// (Upgrade*) — and verifies each name appears
// verbatim in docs/PROTOCOL.md. Renaming, adding, or removing a wire
// constant without touching the spec fails `make lint`.
//
// Usage:
//
//	go run ./tools/speclink [-pkg dir] [-doc file]
//
// Exit status is 1 when the spec is missing any constant, 2 on parse or
// read errors.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
)

// wirePrefixes selects the constant families that form the wire contract;
// wireExact adds the loners that do not share a family prefix.
var (
	wirePrefixes = []string{"Op", "ErrCode", "Flag", "Upgrade"}
	wireExact    = map[string]bool{
		"RespFlag":       true,
		"EntryUnhealthy": true,
		"Version":        true,
		"MaxFrameLen":    true,
		"MaxBatch":       true,
	}
)

func main() {
	pkgDir := flag.String("pkg", "internal/binproto", "package directory holding the wire constants")
	docPath := flag.String("doc", "docs/PROTOCOL.md", "spec file that must mention every wire constant")
	flag.Parse()

	names, err := wireConstants(*pkgDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "speclink: %v\n", err)
		os.Exit(2)
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "speclink: no wire constants found in %s — wrong -pkg?\n", *pkgDir)
		os.Exit(2)
	}
	doc, err := os.ReadFile(*docPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "speclink: %v\n", err)
		os.Exit(2)
	}
	var missing []string
	for _, name := range names {
		if !strings.Contains(string(doc), name) {
			missing = append(missing, name)
		}
	}
	for _, name := range missing {
		fmt.Printf("%s: wire constant %s is not mentioned in %s\n", *pkgDir, name, *docPath)
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "speclink: %d wire constants missing from the spec\n", len(missing))
		os.Exit(1)
	}
}

// wireConstants returns the sorted exported const names in dir that belong
// to the wire contract.
func wireConstants(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.GenDecl)
				if !ok || d.Tok != token.CONST {
					continue
				}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if name.IsExported() && isWireName(name.Name) {
							names = append(names, name.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// isWireName reports whether an exported constant name is part of the wire
// contract speclink polices.
func isWireName(name string) bool {
	if wireExact[name] {
		return true
	}
	for _, p := range wirePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
