package argo

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllowlist names the exports under internal/ that may stay
// unused by non-test code, one "pkg.Name reason" entry a line.
const deadExportAllowlist = "testdata/dead-exports.txt"

// Every exported function, method and type under internal/ must be named
// by some non-test Go file of the module or of benchmark/ other than its
// own declaration; an export only tests reach belongs in the tests.
// Functions and types are matched by package (a bare name inside their
// package, a pkg.Name selector outside it), methods by name in any
// selector on a value (not on an imported package name), which also
// credits a call through an interface.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, pkg, name string }
	var decls []decl
	used := map[string]bool{} // "pkgpath.Name" for funcs and types, ".Name" for methods
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("argo", filepath.ToSlash(filepath.Dir(p)))
		internal := strings.HasPrefix(pkg, "argo/internal/")
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(ip)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ip
		}
		own := map[*ast.Ident]bool{} // declaration and receiver names
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				own[dd.Name] = true
				name := dd.Name.Name
				if dd.Recv != nil {
					recv := dd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if idx, ok := recv.(*ast.IndexExpr); ok {
						recv = idx.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						own[id] = true
						if internal && ast.IsExported(name) && ast.IsExported(id.Name) {
							decls = append(decls, decl{"." + name, pkg, id.Name + "." + name})
						}
					}
				} else if internal && ast.IsExported(name) {
					decls = append(decls, decl{pkg + "." + name, pkg, name})
				}
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						own[ts.Name] = true
						if internal && ast.IsExported(ts.Name.Name) {
							decls = append(decls, decl{pkg + "." + ts.Name.Name, pkg, ts.Name.Name})
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// A package-qualified name (graph.HubCount, slices.Clone)
				// credits that package's function or type, never a method.
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				} else {
					used["."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !own[n] {
					used[pkg+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	allowed := readAllowlist(t)
	var dead []string
	for _, d := range decls {
		name := path.Base(d.pkg) + "." + d.name
		_, listed := allowed[name]
		delete(allowed, name)
		switch {
		case used[d.key] && listed:
			t.Errorf("%s is used now; drop it from %s", name, deadExportAllowlist)
		case !used[d.key] && !listed:
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("%s is exported but no non-test code names it: delete it, move it into its package's tests, or allowlist it with a reason in %s", name, deadExportAllowlist)
	}
	for name := range allowed {
		t.Errorf("%s names no export under internal/; drop it from %s", name, deadExportAllowlist)
	}
}

// readAllowlist parses deadExportAllowlist, requiring a reason on every
// entry.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(deadExportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Fatalf("%s: %s has no reason", deadExportAllowlist, name)
		}
		out[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
