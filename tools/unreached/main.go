// Command unreached reports exported identifiers under internal/ that no
// non-test file names: code with no caller, knobs with no second value. It
// type-checks every non-test package of the module (bench/ too: its module
// path extends this one's) and flags an exported package-level identifier
// named nowhere outside its own declaration and the methods of its own type,
// and an exported field of a *Config or *Options struct named nowhere outside
// its own package — a package reading its own knob is not a caller choosing
// a value. Methods are out of scope: interface dispatch hides their callers.
// The only exemption is a comment line "//unreached:testsupport <reason>" on
// the declaration (on a struct it covers the fields), for what another
// package's tests set or observe.
//
// Usage: go run ./tools/unreached, in the module root; exit status 1 on a finding.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	found, err := scan(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(2)
	}
	if len(found) > 0 {
		fmt.Printf("%s\nunreached: %d exported identifiers no non-test file names: delete them, or say //unreached:testsupport <reason>\n",
			strings.Join(found, "\n"), len(found))
		os.Exit(1)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scan type-checks every package directory under root and returns the
// findings, sorted, as "file:line: message".
func scan(root string) ([]string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := strings.Fields(string(gomod))[1] // the file opens "module <path>"

	// The module's packages are checked from source, each once, into one
	// types.Info, so an object is the same value wherever it is named.
	fset, pkgs := token.NewFileSet(), map[string]*types.Package{}
	var decls []ast.Decl
	var declPkg []string // declPkg[i] is the package path of decls[i]
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := importer.ForCompiler(fset, "source", nil)
	var load importerFunc
	load = func(path string) (*types.Package, error) {
		if path != module && !strings.HasPrefix(path, module+"/") {
			return std.Import(path)
		}
		if p, ok := pkgs[path]; ok {
			return p, nil
		}
		dir := filepath.Join(root, strings.TrimPrefix(path, module))
		bp, err := build.ImportDir(dir, 0) // GoFiles: no tests, build constraints applied
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			for _, d := range f.Decls {
				decls, declPkg = append(decls, d), append(declPkg, path)
			}
		}
		pkgs[path], err = (&types.Config{Importer: load}).Check(path, fset, files, info)
		return pkgs[path], err
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		_, err = load(strings.TrimSuffix(module+"/"+filepath.ToSlash(rel), "/."))
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// cands maps what internal/ exports to the syntax that declares it, which
	// a reference from inside does not count; fields holds the config fields.
	cands, fields := map[types.Object]ast.Node{}, map[types.Object]bool{}
	add := func(id *ast.Ident, decl ast.Node, docs ...*ast.CommentGroup) bool {
		for _, g := range docs {
			for i := 0; g != nil && i < len(g.List); i++ {
				if strings.HasPrefix(g.List[i].Text, "//unreached:testsupport ") {
					return false
				}
			}
		}
		if id.IsExported() {
			cands[info.Defs[id]] = decl
		}
		return id.IsExported()
	}
	for i, d := range decls {
		if !strings.Contains(declPkg[i]+"/", "/internal/") {
			continue
		}
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
			add(fd.Name, fd, fd.Doc)
		}
		gd, _ := d.(*ast.GenDecl)
		for j := 0; gd != nil && j < len(gd.Specs); j++ {
			switch s := gd.Specs[j].(type) {
			case *ast.ValueSpec:
				for _, id := range s.Names {
					add(id, s, gd.Doc, s.Doc, s.Comment)
				}
			case *ast.TypeSpec:
				st, isStruct := s.Type.(*ast.StructType)
				knobs := strings.HasSuffix(s.Name.Name, "Config") || strings.HasSuffix(s.Name.Name, "Options")
				if !add(s.Name, s, gd.Doc, s.Doc, s.Comment) || !isStruct || !knobs {
					continue
				}
				for _, fl := range st.Fields.List {
					for _, id := range fl.Names {
						fields[info.Defs[id]] = add(id, fl, fl.Doc, fl.Comment)
					}
				}
			}
		}
	}

	// A reference reaches its object unless it sits inside the object's own
	// declaration, inside a method of the object (a type), or — for a config
	// field — inside the field's own package.
	for i, d := range decls {
		var recv types.Object // the receiver's type: the first identifier there that is a use
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
			ast.Inspect(fd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && recv == nil {
					recv = info.Uses[id]
				}
				return true
			})
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := info.Uses[id]
				decl, ok := cands[obj]
				own := ok && id.Pos() >= decl.Pos() && id.Pos() < decl.End()
				if ok && !own && obj != recv && !(fields[obj] && declPkg[i] == obj.Pkg().Path()) {
					delete(cands, obj)
				}
			}
			return true
		})
	}
	var found []string
	for obj := range cands {
		pos := fset.Position(obj.Pos())
		rel, _ := filepath.Rel(root, pos.Filename)
		found = append(found, fmt.Sprintf("%s:%d: exported %s.%s has no non-test reference", rel, pos.Line, obj.Pkg().Name(), obj.Name()))
	}
	sort.Strings(found)
	return found, nil
}
