package rrset

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"oipa/internal/graph"
)

// TestSubstrateValidate drives the one validate through both substrates —
// a single graph and a two-layer multiplex — with every malformed layout
// set a caller can hand the constructors, and checks that the error names
// the offending piece.
func TestSubstrateValidate(t *testing.T) {
	g, probs := randomTestGraph(t, 5, 30, 120)
	other, _ := randomTestGraph(t, 6, 30, 120)
	good, err := buildLayouts(g, probs[:2])
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := buildLayouts(other, probs[:1])
	if err != nil {
		t.Fatal(err)
	}
	mx, err := graph.NewMultiplex(30, []graph.MultiplexLayer{{G: g}, {G: other}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	muxGood := muxTestLayouts(t, mx)

	type layouts = [][]*graph.PieceLayout
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		mx      *graph.Multiplex
		layouts layouts
		theta   int
		want    string // substring of the error; "" = accepted
	}{
		{"graph ok", g, nil, OneLayer(good), 10, ""},
		{"mux ok", nil, mx, muxGood, 10, ""},
		{"neither substrate", nil, nil, OneLayer(good), 10, "exactly one"},
		{"both substrates", g, mx, muxGood, 10, "exactly one"},
		{"graph zero pieces", g, nil, nil, 10, "no pieces"},
		{"mux zero pieces", nil, mx, nil, 10, "no pieces"},
		{"graph nil layout", g, nil, layouts{good[:1], {nil}}, 10, "piece 1"},
		{"mux nil layout", nil, mx, layouts{muxGood[0], {muxGood[1][0], nil}}, 10, "piece 1"},
		{"graph wrong graph", g, nil, layouts{good[:1], foreign}, 10, "piece 1"},
		{"mux wrong layer", nil, mx, layouts{{muxGood[0][1], muxGood[0][0]}, muxGood[1]}, 10, "piece 0"},
		{"graph wrong layer count", g, nil, layouts{good[:1], good}, 10, "piece 1 has 2 layouts for 1 layers"},
		{"mux wrong layer count", nil, mx, layouts{muxGood[0], muxGood[1][:1]}, 10, "piece 1 has 1 layouts for 2 layers"},
		{"graph zero theta", g, nil, OneLayer(good), 0, "non-positive theta"},
		{"mux negative theta", nil, mx, muxGood, -3, "non-positive theta"},
	} {
		m, err := sampleMRR(tc.g, tc.mx, tc.layouts, tc.theta, 1)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "" && (m.Theta() != tc.theta || m.L() != len(tc.layouts)):
			t.Errorf("%s: sampled (θ=%d, ℓ=%d)", tc.name, m.Theta(), m.L())
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// declaredNames parses the package's non-test files and returns the name
// of every function, method, type and struct field they declare; a type
// is also recorded as "type Name", to tell it from a method of that name.
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
					names["type "+d.Name.Name] = true
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

// TestExportedSurface pins the constructor surface: one collection type
// with one substrate-generic constructor plus thin wrappers, no *Ctx
// twins, no fused-count API, and no file format (every substrate comes
// from newSubstrate).
func TestExportedSurface(t *testing.T) {
	want := map[string]bool{"NewMRRCollection": true,
		"SampleMRR": true, "SampleMRRLayouts": true, "SampleMRRMultiplexLayouts": true, "SampleMRRWithRoots": true}
	names := declaredNames(t)
	for name := range names {
		constructor := strings.HasPrefix(name, "SampleMRR") || strings.HasPrefix(name, "NewCollection") || strings.HasPrefix(name, "NewMRR")
		if constructor && !want[name] {
			t.Errorf("unexpected exported constructor %s", name)
		}
		if constructor && strings.HasSuffix(name, "Ctx") {
			t.Errorf("%s: cancellation enters through ExtendToCtx only", name)
		}
	}
	for name := range want {
		if !names[name] {
			t.Errorf("constructor %s is gone", name)
		}
	}
	for _, gone := range []string{"DropSampleCounts", "counted", "shardsAfter",
		"Write", "Save", "ReadMRR", "LoadMRR", "packedStore",
		"type Collection", "type View", "Coverage", "EstimateSpread"} {
		if names[gone] {
			t.Errorf("%s is back", gone)
		}
	}
}
