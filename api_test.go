package oms_test

import (
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite api.txt from the current exported declarations")

// TestPublicAPI holds the exported surface of oms and oms/client to the
// committed api.txt, one declaration a line, so a change to the public
// API shows in review as a diff of that file. Regenerate it with
// go test -run TestPublicAPI -update.
func TestPublicAPI(t *testing.T) {
	var lines []string
	for _, p := range []struct{ dir, path string }{{".", "oms"}, {"client", "oms/client"}} {
		lines = append(lines, exportedDecls(t, p.dir, p.path)...)
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, l := range lines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("added: %s", l)
		}
	}
	for _, l := range wantLines {
		if !slices.Contains(lines, l) {
			t.Errorf("removed: %s", l)
		}
	}
	if t.Failed() {
		t.Log("the public API changed; if that is intended, run go test -run TestPublicAPI -update")
	} else if got != string(want) {
		t.Fatal("api.txt is out of order; run go test -run TestPublicAPI -update")
	}
}

// exportedDecls lists the exported declarations of the package in dir,
// sorted: constants and variables by name, functions and methods with
// their signatures, and types with their exported fields or methods.
func exportedDecls(t *testing.T, dir, path string) []string {
	t.Helper()
	fset := token.NewFileSet()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, path)
	if err != nil {
		t.Fatal(err)
	}
	src := func(n ast.Node) string {
		var b strings.Builder
		printer.Fprint(&b, fset, n)
		return strings.Join(strings.Fields(b.String()), " ")
	}
	var out []string
	add := func(s string) { out = append(out, "pkg "+path+", "+s) }
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if n.IsExported() {
						add(kind + " " + n.Name)
					}
				}
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			sig := strings.TrimPrefix(src(f.Decl.Type), "func")
			if f.Decl.Recv != nil {
				add("method (" + src(f.Decl.Recv.List[0].Type) + ") " + f.Name + sig)
			} else {
				add("func " + f.Name + sig)
			}
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		spec := typ.Decl.Specs[0].(*ast.TypeSpec)
		switch tt := spec.Type.(type) {
		case *ast.StructType:
			add("type " + typ.Name + " struct")
			for _, f := range tt.Fields.List {
				for _, n := range f.Names {
					add("type " + typ.Name + " struct, " + n.Name + " " + src(f.Type))
				}
				if f.Names == nil {
					add("type " + typ.Name + " struct, embedded " + src(f.Type))
				}
			}
		case *ast.InterfaceType:
			add("type " + typ.Name + " interface")
			for _, m := range tt.Methods.List {
				for _, n := range m.Names {
					add("type " + typ.Name + " interface, " + n.Name + strings.TrimPrefix(src(m.Type), "func"))
				}
			}
		default:
			if spec.Assign.IsValid() {
				add("type " + typ.Name + " = " + src(spec.Type))
			} else {
				add("type " + typ.Name + " " + src(spec.Type))
			}
		}
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
		funcs(typ.Methods)
	}
	slices.Sort(out)
	return out
}
