package neusight_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported package-level identifiers under
// internal/ that only _test.go files reference and that stay exported
// anyway, each with the reason. "Might be useful" is not a reason; a
// reference implementation tests compare against is.
var testOnlyAllowed = map[string]string{
	"internal/autodiff.SumAll": "the unweighted scalar reduction the package's gradient checks backpropagate from, so an expected gradient is the op's own derivative and not 1/n of it.",
	"internal/mat.Equal":       "the tolerance comparison the mat, nn and autodiff tests use to hold an optimized kernel to its reference implementation (compiled MLP against the autodiff forward, blocked matmul against the serial one).",
	"internal/mat.FromRows":    "the literal-matrix constructor of the hand-computed fixtures those comparisons use; production code only builds matrices from flat buffers.",
	"internal/mat.RandUniform": "inputs on a bounded domain for the nn training tests, which fit a function on [-1, 1) and check the loss drop; production draws only from RandN.",
	"internal/opt.NewSGD":      "plain and momentum gradient descent, the update rule simple enough to check by hand: the opt and nn tests use it to show autodiff gradients reach an analytic minimum without AdamW's moment estimates in between.",
	"internal/models.T5Large":  "encoder-decoder workload outside Table 5 that the root integration test forecasts kernel by kernel — the fixture for the paper's claim that unseen architectures resolve to forecasts.",
	"internal/models.Llama7B":  "the same fixture for the RMSNorm/rotary/SwiGLU decoder family, whose 2048-token attention BMMs fall outside the training range.",
}

// stdlibMethods are exported method names the standard library calls
// through its own interfaces (fmt.Stringer, error, json.Marshaler,
// json.Unmarshaler, http.Handler), so no selector in the module need
// name them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// TestNoTestOnlyExports keeps internal/ from growing API that only its own
// tests use: every exported package-level function, type, variable and
// constant under internal/ must be referenced from at least one non-test
// .go file — another internal package, cmd/, examples/ or the bench/
// module — or be allow-listed above with a reason. Struct fields are left
// out. Methods get a weaker check, because interface dispatch makes their
// callers undecidable without type checking: an exported method under
// internal/ fails only when no selector anywhere in the module, test or
// not, uses its name (stdlibMethods aside).
//
// The check is syntactic (go/parser only, no type checking, nothing outside
// the standard library): a qualified reference is pkgname.Ident through the
// file's import of the declaring package, an unqualified one is an
// identifier in the declaring package that the parser did not resolve to a
// local declaration. Both err towards "referenced", so the test never
// fails on an identifier that is in use.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "neusight/"
	fset := token.NewFileSet()
	type file struct {
		dir  string // slash-separated, relative to the repo root
		test bool
		ast  *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, file{
			dir:  filepath.ToSlash(filepath.Dir(path)),
			test: strings.HasSuffix(path, "_test.go"),
			ast:  f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Exported package-level declarations of non-test files under internal/,
	// keyed "internal/pkg.Ident"; declPos remembers where each is declared so
	// a same-package identifier can be told from a local of the same name.
	type counts struct{ real, test int }
	refs := map[string]*counts{}
	// methods maps "internal/pkg.Recv.Name" to the method's name, for every
	// exported method declared outside _test.go files under internal/.
	methods := map[string]string{}
	declPos := map[string]token.Pos{}
	declare := func(dir string, id *ast.Ident) {
		if id.IsExported() {
			refs[dir+"."+id.Name] = &counts{}
			declPos[dir+"."+id.Name] = id.Pos()
		}
	}
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(f.dir, d.Name)
				} else if d.Name.IsExported() {
					methods[f.dir+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name] = d.Name.Name
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(f.dir, s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(f.dir, id)
						}
					}
				}
			}
		}
	}

	selected := map[string]bool{} // every selector name in the module
	for _, f := range files {
		// Local import name -> declaring directory, for this file's imports
		// of the module's internal packages.
		imported := map[string]string{}
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, module+"internal/") {
				continue
			}
			dir := strings.TrimPrefix(path, module)
			name := dir[strings.LastIndex(dir, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = dir
		}
		count := func(key string) {
			if c := refs[key]; c != nil {
				if f.test {
					c.test++
				} else {
					c.real++
				}
			}
		}
		selectors := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selectors[n.Sel] = true
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
					if dir, ok := imported[x.Name]; ok {
						count(dir + "." + n.Sel.Name)
					}
				}
			case *ast.Ident:
				// Same-package use: not a selector's field, not the declaration
				// itself, and resolved by the parser either to nothing (another
				// file of the package) or to the package-level declaration.
				key := f.dir + "." + n.Name
				if pos, ok := declPos[key]; ok && !selectors[n] && n.Pos() != pos &&
					(n.Obj == nil || n.Obj.Pos() == pos) {
					count(key)
				}
			}
			return true
		})
	}

	var offenders []string
	for key, c := range refs {
		if c.real == 0 && c.test > 0 {
			if _, ok := testOnlyAllowed[key]; !ok {
				offenders = append(offenders, key)
			}
		}
	}
	var unused []string
	for key, name := range methods {
		if !selected[name] && !stdlibMethods[name] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, key := range unused {
		t.Errorf("method %s is exported but no selector in the module names %s: delete it or unexport it", key, methods[key])
	}
	sort.Strings(offenders)
	for _, key := range offenders {
		t.Errorf("%s is exported but referenced only from _test.go files: delete it, unexport it, or add it to testOnlyAllowed with a reason", key)
	}
	for key, reason := range testOnlyAllowed {
		c := refs[key]
		switch {
		case c == nil:
			t.Errorf("testOnlyAllowed lists %s, which is not an exported package-level identifier under internal/", key)
		case c.real > 0:
			t.Errorf("testOnlyAllowed lists %s, which non-test code now references: drop the entry", key)
		case strings.TrimSpace(reason) == "":
			t.Errorf("testOnlyAllowed lists %s without a reason", key)
		}
	}
	if len(testOnlyAllowed) > 10 {
		t.Errorf("testOnlyAllowed has %d entries; the limit is 10", len(testOnlyAllowed))
	}
}

// recvName returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
