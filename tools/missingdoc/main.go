// Command missingdoc reports exported identifiers that lack a doc comment.
//
// It parses the given package directories (relative to the module root) and
// flags every exported type, function, method, package-level var/const
// group, exported struct field, and exported interface method that has no
// comment attached. A doc comment on a grouped declaration covers every
// spec in the group, matching the usual Go convention for const/var blocks.
//
// Usage:
//
//	go run ./tools/missingdoc [dir ...]
//
// With no arguments it checks the public facade and the packages whose
// exported surface carries concurrency or durability contracts. Exit status
// is 1 when anything is undocumented, so `make lint` can gate on it.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultDirs is the surface the repository promises to keep documented.
var defaultDirs = []string{
	".",
	"internal/cm",
	"internal/dataplane",
	"internal/gateway",
	"internal/cluster",
	"internal/binproto",
	"internal/frame",
	"internal/store",
	"internal/repl",
	"internal/obs",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var problems []string
	for _, dir := range dirs {
		ps, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "missingdoc: %v\n", err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "missingdoc: %d undocumented exported identifiers\n", len(problems))
		os.Exit(1)
	}
}

// checkDir parses one package directory (tests excluded) and returns one
// problem line per undocumented exported identifier.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s is undocumented",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil {
						report(d.Pos(), funcKind(d), d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return problems, nil
}

// exportedRecv reports whether a function is a plain function or a method
// on an exported receiver type; methods on unexported types are not part of
// the documented surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	name := recvTypeName(d.Recv.List[0].Type)
	return name == "" || ast.IsExported(name)
}

// recvTypeName unwraps pointers and type parameters down to the receiver's
// type name.
func recvTypeName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// checkGenDecl walks a type/var/const declaration. The group doc covers
// grouped specs; individual specs may carry their own doc or line comment
// instead.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
			switch t := s.Type.(type) {
			case *ast.StructType:
				checkFields(s.Name.Name, t.Fields, "field", report)
			case *ast.InterfaceType:
				checkFields(s.Name.Name, t.Methods, "interface method", report)
			}
		case *ast.ValueSpec:
			documented := d.Doc != nil || s.Doc != nil || s.Comment != nil
			for _, name := range s.Names {
				if name.IsExported() && !documented {
					report(name.Pos(), d.Tok.String(), name.Name)
				}
			}
		}
	}
}

// checkFields flags undocumented exported struct fields or interface
// methods of an exported type. Embedded fields document themselves through
// the embedded type.
func checkFields(owner string, fields *ast.FieldList, what string, report func(token.Pos, string, string)) {
	if fields == nil {
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil || len(f.Names) == 0 {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				report(name.Pos(), what, owner+"."+name.Name)
			}
		}
	}
}
