package slingshot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDeterminismRules keeps out of the program, in one walk over every
// non-test file, what would make a run depend on more than its seed:
//
//   - Configuration read from the environment. Every report is
//     byte-identical at any worker or shard count, so those are set through
//     the API (par.SetWorkers, shard.Config.Shards) or flags, and GOMAXPROCS
//     sizes the defaults.
//   - Outside cmd/, the wall clock (time.Now, Since, Until, Sleep, timers)
//     and math/rand, math/rand/v2 or crypto/rand: time is sim.Time, and
//     randomness is a sim.RNG forked from the seed.
//   - Outside internal/par and cmd/, a go statement, a channel or a select:
//     par is the one place work runs concurrently, and it hands results
//     back in submission order.
//
// bench/ is exempt: it is a module of its own, times what it runs, and reads
// the environment only to refuse to run under foreign settings.
func TestDeterminismRules(t *testing.T) {
	bannedOS := map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true}
	bannedTime := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true,
		"After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true}
	bannedImports := map[string]bool{"math/rand": true, "math/rand/v2": true, "crypto/rand": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(path)
		inCmd := strings.HasPrefix(slash, "cmd/")
		mayConcur := inCmd || strings.HasPrefix(slash, "internal/par/")
		banned := map[string]map[string]bool{} // local package name → banned selectors
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if bannedImports[p] && !inCmd {
				t.Errorf("%s: imports %s; draw from a sim.RNG forked from the seed", fset.Position(imp.Pos()), p)
			}
			sels := bannedOS
			if p == "time" && !inCmd {
				sels = bannedTime
			} else if p != "os" {
				continue
			}
			name := p
			if imp.Name != nil {
				name = imp.Name.Name
			}
			banned[name] = sels
		}
		ast.Inspect(f, func(n ast.Node) bool {
			what, concur := "", true
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && banned[x.Name][n.Sel.Name] {
					what, concur = x.Name+"."+n.Sel.Name, false
				}
			case *ast.GoStmt:
				what = "a go statement"
			case *ast.ChanType:
				what = "a channel"
			case *ast.SendStmt:
				what = "a channel send"
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					what = "a channel receive"
				}
			case *ast.SelectStmt:
				what = "a select"
			}
			if what != "" && !(concur && mayConcur) {
				t.Errorf("%s: %s makes the run depend on more than its seed", fset.Position(n.Pos()), what)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
