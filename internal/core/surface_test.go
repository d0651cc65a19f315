package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"strings"
	"testing"
)

// declaredNames parses the package's non-test files and returns the name
// of every function, method, type and struct field they declare.
func declaredNames(t *testing.T) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					names[d.Name.Name] = true
					return false
				case *ast.TypeSpec:
					names[d.Name.Name] = true
				case *ast.Field:
					for _, id := range d.Names {
						names[id.Name] = true
					}
				}
				return true
			})
		}
	}
	return names
}

// TestExportedSurface pins one way to prepare: Prepare and its
// single-graph layouts wrapper are the only Prepare* functions, and an
// Instance carries one layouts field and no probability vectors. It also
// pins one search: no parallel search and no sketch-steered evaluation.
func TestExportedSurface(t *testing.T) {
	names := declaredNames(t)
	for name := range names {
		if strings.HasPrefix(name, "Prepare") && name != "Prepare" && name != "PrepareLayouts" {
			t.Errorf("unexpected prepare entry point %s", name)
		}
	}
	for _, want := range []string{"Prepare", "PrepareLayouts", "Layouts"} {
		if !names[want] {
			t.Errorf("%s is gone", want)
		}
	}
	for _, gone := range []string{"MuxLayouts", "PieceProbs", "ExtendToCtx",
		"solveBranchAndBoundParallel", "evalCheckout", "directCheckout",
		"Sketch", "TraceWorker", "SketchEvals", "ReVerifyEvals", "Steals"} {
		if names[gone] {
			t.Errorf("%s is back", gone)
		}
	}
}

// TestWorkersIsInert pins that BABOptions.Workers, kept only because the
// benchmark harness still sets it, changes nothing: the search with four
// workers returns the sequential Result, SpecExpansions and SpecWasted
// zero.
func TestWorkersIsInert(t *testing.T) {
	inst := branchyInstance(t, 19, 40, 160, 6, 2, 3, 800, 8, 6, 2)
	for _, solve := range []func(*Instance, BABOptions) (*Result, error){SolveBAB, SolveBABP} {
		opts := DefaultBABPOptions()
		opts.Tolerance = 0
		want, err := solve(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want.Stats.Nodes == 0 {
			t.Fatal("the search certified at the root")
		}
		opts.Workers = 4
		got, err := solve(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		got.Elapsed, want.Elapsed = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s with 4 workers:\n got %+v\nwant %+v", want.Method, got, want)
		}
		if got.Stats.SpecExpansions != 0 || got.Stats.SpecWasted != 0 {
			t.Fatalf("%s: speculation stats %+v", got.Method, got.Stats)
		}
	}
}
