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
// of every function, method, type, struct field, constant and variable
// they declare.
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
				case *ast.ValueSpec:
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

// TestExportedSurface pins one way to prepare, over one graph: Prepare
// and its layouts wrapper are the only Prepare* functions, a Problem has
// no layer set, and an Instance carries one layouts field and no
// probability vectors. It also pins one search: no parallel search, no
// sketch-steered evaluation, and one configuration — no bound mode, no
// progressive switch, no second default, no brute-force solver, no plan
// algebra and no structural dominating-set baseline. An instance only
// grows or is viewed as a prefix: there is no shrink. MaxPieces is the
// one piece limit, which the serve tier checks before admission.
func TestExportedSurface(t *testing.T) {
	names := declaredNames(t)
	for name := range names {
		if strings.HasPrefix(name, "Prepare") && name != "Prepare" && name != "PrepareLayouts" {
			t.Errorf("unexpected prepare entry point %s", name)
		}
	}
	for _, want := range []string{"Prepare", "PrepareLayouts", "Layouts", "MaxPieces"} {
		if !names[want] {
			t.Errorf("%s is gone", want)
		}
	}
	for _, gone := range []string{"MuxLayouts", "PieceProbs", "ExtendToCtx",
		"solveBranchAndBoundParallel", "evalCheckout", "directCheckout",
		"Sketch", "TraceWorker", "SketchEvals", "ReVerifyEvals", "Steals",
		"BoundMode", "BoundHull", "BoundTangent", "BoundTangentUncapped", "TangentAt",
		"RefineGradient", "AdoptionRaw", "NewBoundTableMode", "WithBoundMode", "SolveBrute",
		"Progressive", "DefaultBABPOptions", "Union", "Contains", "Clone", "Has",
		"SolveMDS", "ShrinkTo",
		// layer sets: one graph reaches the solver
		"Mux", "N", "Z", "pieceLayouts", "LayerLayouts"} {
		if names[gone] {
			t.Errorf("%s is back", gone)
		}
	}
}

// TestPlaceholdersAreInert pins that the BABOptions fields kept only
// because the benchmark harness still sets them change nothing: four
// workers, and RawGap and FillAfterFloor either way, each return the
// default Result bit for bit, and SpecExpansions and SpecWasted stay
// zero. On this instance the strict gap that RawGap false used to ask for
// expands a different tree, and BAB-P without the fill, which
// FillAfterFloor false used to ask for, returns a different plan.
func TestPlaceholdersAreInert(t *testing.T) {
	inst := branchyInstance(t, 20, 40, 160, 6, 2, 5, 800, 8, 6, 2)
	opts := DefaultBABOptions()
	opts.Tolerance = 0.1
	raw, _ := refSolve(inst, refOptions{BABOptions: opts})
	strict, _ := refSolve(inst, refOptions{BABOptions: opts, strictGap: true})
	if raw.Stats.Nodes == strict.Stats.Nodes {
		t.Fatalf("the strict and the raw gap both expand %d nodes", raw.Stats.Nodes)
	}
	for _, solve := range []func(*Instance, BABOptions) (*Result, error){SolveBAB, SolveBABP} {
		want, err := solve(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		want.Elapsed = 0
		for name, set := range map[string]func(*BABOptions){
			"4 workers":            func(o *BABOptions) { o.Workers = 4 },
			"RawGap false":         func(o *BABOptions) { o.RawGap = false },
			"RawGap true":          func(o *BABOptions) { o.RawGap = true },
			"FillAfterFloor false": func(o *BABOptions) { o.FillAfterFloor = false },
			"FillAfterFloor true":  func(o *BABOptions) { o.FillAfterFloor = true },
		} {
			o := opts
			set(&o)
			got, err := solve(inst, o)
			if err != nil {
				t.Fatal(err)
			}
			got.Elapsed = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s with %s:\n got %+v\nwant %+v", want.Method, name, got, want)
			}
			if got.Stats.SpecExpansions != 0 || got.Stats.SpecWasted != 0 {
				t.Fatalf("%s: speculation stats %+v", got.Method, got.Stats)
			}
		}
	}
}
