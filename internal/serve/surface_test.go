package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// TestExportedSurface pins one registry lookup, context-only
// cancellation, the two metric expositions that have readers,
// instrumentation that is always on, one sequential search per solve,
// one estimator, no solve coalescing, no memory governor, no async
// jobs, one graph, one build path for a registry entry and one request
// path for a heavy endpoint.
func TestExportedSurface(t *testing.T) {
	names := declaredNames(t)
	if !names["Instance"] {
		t.Error("Registry.Instance is gone")
	}
	for _, gone := range []string{"InstanceLayers", "stopCtx", "PublishExpvar", "CountsDroppedBytes",
		"DisableObs", "disabled",
		"SolveWorkers", "solveWeight", "parallelSolves", "SketchEvals", "ReVerifyEvals", "Steals", "SpecWasted",
		"SketchK", "sketchEligible", "solveCoalesced", "solveFlight", "flights", "sketchEstimates",
		// the memory governor
		"MemBudget", "MemEpoch", "MemTick", "budget", "epochWindow", "epochClock", "reclaiming",
		"govQuit", "govDone", "govStop", "lastTickClock", "maybeReclaim", "startGovernor",
		"stopGovernor", "backgroundTick", "reclaimPass", "shrinkEntry", "evictColdestLocked",
		"curMax", "prevMax", "shrinks", "reclaimsBackground", "phaseShrink", "Shrinks",
		"ReclaimsBackground", "Shrink",
		// async jobs
		"Async", "Workers", "QueueDepth", "JobHistory", "jobs", "jobQueue", "JobStatus",
		"handleJobs", "handleJob", "runJob", "jobRequests", "Jobs", "ErrQueueFull", "ErrClosed",
		// layer sets: the server serves one graph
		"Layers", "mx", "numLayers", "layoutCap", "subMu", "subs", "layerMask", "subMultiplex",
		"layers", "canonLayers",
		// builds outside the grow slot, per-handler admission
		"prepareEntry", "reprepareEntry", "account", "acquireSlot", "checkTheta"} {
		if names[gone] {
			t.Errorf("%s is back", gone)
		}
	}
}
