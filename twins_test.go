package mmtag_test

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

// sourceFile is one parsed non-test Go file of the module.
type sourceFile struct {
	dir  string // slash-separated directory relative to the module root
	file *ast.File
}

// parseTree parses every non-test Go file under root, skipping
// dot-directories and testdata.
func parseTree(t *testing.T, root string) []sourceFile {
	t.Helper()
	var files []sourceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, sourceFile{dir: filepath.ToSlash(dir), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// internalPkg returns the package path below internal/ of a module
// directory, or false outside internal/.
func internalPkg(dir string) (string, bool) {
	return strings.CutPrefix(dir, "internal/")
}

// funcKey names a function "pkg.Name" or a method "pkg.Recv.Name", with
// pkg relative to internal/.
func funcKey(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		return pkg + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
	}
	return pkg + "." + fn.Name.Name
}

// exportedTwins returns each exported X under internal/ that shares its
// package and receiver with an exported XWS, XInto or AppendX.
func exportedTwins(files []sourceFile) []string {
	// names[pkg][recv] is the set of exported function names.
	names := map[string]map[string]map[string]bool{}
	for _, sf := range files {
		pkg, ok := internalPkg(sf.dir)
		if !ok {
			continue
		}
		for _, decl := range sf.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			recv := ""
			if fn.Recv != nil && len(fn.Recv.List) > 0 {
				recv = receiverName(fn.Recv.List[0].Type)
			}
			if names[pkg] == nil {
				names[pkg] = map[string]map[string]bool{}
			}
			if names[pkg][recv] == nil {
				names[pkg][recv] = map[string]bool{}
			}
			names[pkg][recv][fn.Name.Name] = true
		}
	}
	var twins []string
	for pkg, recvs := range names {
		for recv, fns := range recvs {
			for name := range fns {
				base, ok := strings.CutSuffix(name, "WS")
				if !ok {
					base, ok = strings.CutSuffix(name, "Into")
				}
				if !ok {
					base, ok = strings.CutPrefix(name, "Append")
				}
				if !ok || !fns[base] {
					continue
				}
				key := pkg + "."
				if recv != "" {
					key += recv + "."
				}
				twins = append(twins, key+base)
			}
		}
	}
	sort.Strings(twins)
	return twins
}

// receiverName returns the base type name of a method receiver,
// dropping the pointer and a type parameter (bufPool[T]).
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestNoAllocatingTwins keeps one signature per kernel: a function that
// takes a workspace, a destination or a buffer to append to is the only
// exported form, and nil (or a fresh make) is how callers ask for
// allocation. A new X next to an XWS, XInto or AppendX fails here.
func TestNoAllocatingTwins(t *testing.T) {
	for _, key := range exportedTwins(parseTree(t, ".")) {
		t.Errorf("%s is exported next to its WS/Into/Append form; delete it and call the survivor with nil or a fresh buffer", key)
	}
}

// uncalledAllowed are the exported internal functions and methods that
// no non-test file names, kept for a reason in one of three categories:
// an independent oracle a test holds live code to, an interface method,
// or an API public through a facade type's field or return type.
var uncalledAllowed = map[string]string{
	"units.BackscatterReceivedDBm":    "oracle: TestBudgetMatchesClosedForm holds core.Link.ComputeBudget to this closed-form two-way link",
	"units.ShannonCapacityBps":        "oracle: TestShannonBoundsRateTable bounds every rate-table bit rate by the AWGN capacity",
	"phy.RequiredSNROOK":              "oracle: TestRequiredSNROOK inverts BEROOKIdeal at BER 10⁻³, the paper's Fig. 7 threshold",
	"phy.BERBPSK":                     "oracle: the exact BPSK closed form TestMonteCarloMatchesAnalyticBPSK holds MonteCarloBER to",
	"phy.BERQPSK":                     "oracle: the exact QPSK closed form TestMonteCarloQPSK holds MonteCarloBER to",
	"obs.BucketCount.MarshalJSON":     "interface method: json.Marshaler for mmtag.MetricsSnapshot's histogram buckets",
	"obs.BucketCount.UnmarshalJSON":   "interface method: json.Unmarshaler for mmtag.MetricsSnapshot's histogram buckets",
	"antenna.ULA.Pattern":             "facade: public through mmtag.VanAttaArray's Geometry field",
	"antenna.ULA.BoresightGainDBi":    "facade: public through mmtag.VanAttaArray's Geometry field",
	"circuit.ABCD.Cascade":            "facade: public through mmtag.VanAttaArray's Line field, whose ABCD method returns circuit.ABCD",
	"tag.EnergyModel.SupportsBitrate": "facade: public through mmtag.Tag's Energy field",
}

// TestNoUncalledExports keeps dead code from growing back. Every
// exported function, and every exported method of an exported type,
// declared in a non-test file under internal/ must be named by some
// non-test file other than its own declaration, be a method of a type
// the facade aliases (X = pkg.T in the root package), or appear in
// uncalledAllowed with its reason. The check is by name, so a dead
// method that shares a common name (Process, Reset) with a live one
// can still hide; building every program with inlining off and diffing
// go tool nm against the declarations finds those.
func TestNoUncalledExports(t *testing.T) {
	files := parseTree(t, ".")

	// refs[name] lists the function declarations whose bodies or
	// signatures use the identifier name; a nil entry is a use outside any
	// function. Declared names are not uses.
	refs := map[string][]*ast.FuncDecl{}
	for _, sf := range files {
		for _, decl := range sf.file.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && (fn == nil || id != fn.Name) {
					refs[id.Name] = append(refs[id.Name], fn)
				}
				return true
			})
		}
	}

	// aliased holds "pkg.T" for every facade alias X = pkg.T.
	aliased := map[string]bool{}
	for _, sf := range files {
		if sf.dir != "." {
			continue
		}
		imports := map[string]string{}
		for _, imp := range sf.file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			pkg, ok := strings.CutPrefix(path, "github.com/mmtag/mmtag/internal/")
			if !ok {
				continue
			}
			name := pkg[strings.LastIndex(pkg, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = pkg
		}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Assign.IsValid() {
				return true
			}
			if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					aliased[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	seen := map[string]bool{}
	for _, sf := range files {
		pkg, ok := internalPkg(sf.dir)
		if !ok {
			continue
		}
		for _, decl := range sf.file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv != nil && len(fn.Recv.List) > 0 {
				recv := receiverName(fn.Recv.List[0].Type)
				if !ast.IsExported(recv) || aliased[pkg+"."+recv] {
					continue
				}
			}
			key := funcKey(pkg, fn)
			called := false
			for _, user := range refs[fn.Name.Name] {
				if user != fn {
					called = true
					break
				}
			}
			if called {
				continue
			}
			seen[key] = true
			if uncalledAllowed[key] == "" {
				t.Errorf("%s is exported but no non-test file names it; delete it, or add it to uncalledAllowed with its reason", key)
			}
		}
	}
	for key := range uncalledAllowed {
		if !seen[key] {
			t.Errorf("uncalledAllowed entry %s no longer needs allowing; drop it", key)
		}
	}
}
