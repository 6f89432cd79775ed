package newton_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// keptSurface is TestNoUnusedSurface's allowlist: what it would report
// and stays anyway, one line each with the reason.
var keptSurface = map[string]string{
	"telemetry.ExporterConfig.NegotiateTimeout": "every negative handshake test would wait the 2 s default otherwise",
	"classify.Config.MaxCells":                  "benchmark/ compiles against classify.Config; the compile-budget tests set it to force a refusal",
	"classify.Config.MaxWork":                   "as MaxCells",
	"compiler.Options.Opt3":                     "two values in use: fig15's ablation leaves it off in three steps, AllOpts turns it on",
	"faults.Temporary":                          "timeoutError: net.Error's method set",
	"faults.Unwrap":                             "timeoutError: errors.Is(err, os.ErrDeadlineExceeded) reaches it",
}

// TestNoUnusedSurface is the ratchet on options nobody sets and entry
// points nobody calls. By name only (no type checker: tier-1 runs without
// `go list`), so it errs towards silence: (a) every exported func or
// method declared in a non-test file under internal/ has its name used
// somewhere in the tree besides its declaration; (b) every exported field
// of an internal/ struct named *Config, *Options or *Budget is a key of a
// literal of that type, or assigned, in a non-test file outside its
// package. Remove what it reports, or add it to keptSurface with the
// reason.
func TestNoUnusedSurface(t *testing.T) {
	var files []*ast.File
	fset := token.NewFileSet()
	uses := map[string]int{} // identifier → occurrences other than as a func declaration's name
	// In non-test files: "dir.Type.Field" keyed in a literal of an imported type,
	// "Field" in one whose type is elided; selector assignments to "Field", and to it in "dir Field".
	keyed, assigned := map[string]bool{}, map[string]int{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		dir, test := filepath.ToSlash(filepath.Dir(p)), strings.HasSuffix(p, "_test.go")
		imports := map[string]string{} // local name → directory of a package of this module
		for _, im := range f.Imports {
			if dir, ok := strings.CutPrefix(strings.Trim(im.Path.Value, `"`), "github.com/newton-net/newton/"); ok {
				name := path.Base(dir)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = dir
			}
		}
		declNames := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declNames[n.Name] = true
			case *ast.Ident:
				if !declNames[n] {
					uses[n.Name]++
				}
			case *ast.CompositeLit:
				typ := ""
				if sel, ok := n.Type.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
						typ = imports[x.Name] + "." + sel.Sel.Name + "."
					}
				}
				for _, el := range n.Elts {
					kv, _ := el.(*ast.KeyValueExpr)
					if kv == nil || test || (typ == "" && n.Type != nil) {
						break
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						keyed[typ+key.Name] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && !test {
						assigned[sel.Sel.Name]++
						assigned[dir+" "+sel.Sel.Name]++
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	stale := maps.Clone(keptSurface)
	report := func(unused bool, at token.Pos, name, what string) {
		if _, kept := keptSurface[name]; unused && !kept {
			t.Errorf("%s: %s %s", fset.Position(at), name, what)
		} else if unused {
			delete(stale, name)
		}
	}
	for _, f := range files {
		file := filepath.ToSlash(fset.File(f.Pos()).Name())
		if strings.HasSuffix(file, "_test.go") || !strings.HasPrefix(file, "internal/") {
			continue
		}
		dir := path.Dir(file)
		pkg := path.Base(dir) + "."
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				report(n.Name.IsExported() && uses[n.Name.Name] == 0, n.Pos(), pkg+n.Name.Name, "is referred to nowhere but its declaration")
				return false
			case *ast.TypeSpec:
				st, _ := n.Type.(*ast.StructType)
				if st == nil || !(strings.HasSuffix(n.Name.Name, "Config") || strings.HasSuffix(n.Name.Name, "Options") ||
					strings.HasSuffix(n.Name.Name, "Budget")) {
					return false
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						set := keyed[dir+"."+n.Name.Name+"."+id.Name] || keyed[id.Name] ||
							assigned[id.Name] > assigned[dir+" "+id.Name]
						report(id.IsExported() && !set, id.Pos(), pkg+n.Name.Name+"."+id.Name, "is set by no non-test file outside "+dir)
					}
				}
				return false
			}
			return true
		})
	}
	for name := range stale {
		t.Errorf("keptSurface lists %s, which the check no longer reports: delete the line", name)
	}
}
