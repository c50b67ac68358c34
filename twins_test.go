package mmtag_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowedTwins are the only X / XWS / XInto pairs the internal packages
// may export, keyed "pkg.Recv.Name" (receiver omitted for functions):
//
//   - dsp.XCorr is the direct O(n·m) correlation loop. It is the reference
//     the xcorr_direct_4096x256 micro-benchmark measures, and XCorrWS's
//     cost-model switch to the FFT path is tested against it.
//   - (*dsp.FIR).Process is the streaming direct-form filter that
//     (*FIR).ProcessWS, FIRFFT and the fir_block_inplace benchmark are
//     pinned against.
//
// Both are separate algorithms kept as references, not allocating
// wrappers around their …WS form.
var allowedTwins = map[string]bool{
	"dsp.XCorr":       true,
	"dsp.FIR.Process": true,
}

// exportedTwins parses every non-test Go file under root and returns
// each exported X that shares its package and receiver with an exported
// XWS or XInto.
func exportedTwins(t *testing.T, root string) []string {
	t.Helper()
	// names[pkg][recv] is the set of exported function names.
	names := map[string]map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var twins []string
	for pkg, recvs := range names {
		for recv, fns := range recvs {
			for name := range fns {
				for _, suffix := range []string{"WS", "Into"} {
					base, ok := strings.CutSuffix(name, suffix)
					if !ok || !fns[base] {
						continue
					}
					key := filepath.ToSlash(pkg) + "."
					if recv != "" {
						key += recv + "."
					}
					twins = append(twins, key+base)
				}
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
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestNoAllocatingTwins keeps one signature per kernel: a function that
// takes a workspace (or a destination) is the only exported form, and
// nil (or a fresh make) is how callers ask for allocation. A new X next
// to an XWS or XInto fails here unless it is added to allowedTwins with
// its reason.
func TestNoAllocatingTwins(t *testing.T) {
	found := exportedTwins(t, "internal")
	seen := map[string]bool{}
	for _, key := range found {
		seen[key] = true
		if !allowedTwins[key] {
			t.Errorf("%s is exported next to its WS/Into form; delete it and call the survivor with nil or a fresh buffer", key)
		}
	}
	for key := range allowedTwins {
		if !seen[key] {
			t.Errorf("allowed twin %s no longer exists; drop it from allowedTwins", key)
		}
	}
}
