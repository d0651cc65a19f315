package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"oipa/internal/logistic"
)

// sameResult fails unless got equals want in every field but Elapsed.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := *got, *want
	g.Elapsed, w.Elapsed = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s:\n got %+v\nwant %+v", label, g, w)
	}
}

// TestEvaluatorPoolMatchesUnpooled pins solves through the lineage's
// pooled evaluators to the same search on an evaluator of its own: the
// whole Result, run twice so the second pass exercises a recycled
// evaluator.
func TestEvaluatorPoolMatchesUnpooled(t *testing.T) {
	ctx := context.Background()
	prob := randomProblem(t, 3, 40, 200, 10, 2, 3)
	inst, err := Prepare(ctx, prob, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultBABOptions()
	fresh := map[string]func() *Result{
		"greedy": func() *Result { return greedy(inst, newEvaluator(inst)) },
		"bab":    func() *Result { return branchAndBound(ctx, inst, newEvaluator(inst), opts, 0, "BAB") },
		"babp":   func() *Result { return branchAndBound(ctx, inst, newEvaluator(inst), opts, opts.Epsilon, "BAB-P") },
	}
	for method, solve := range fresh {
		want := solve()
		for round := 0; round < 2; round++ {
			got, err := Solve(ctx, inst, method, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s round %d", method, round), got, want)
		}
	}
}

// TestEvaluatorPoolConcurrent runs solves concurrently on WithK,
// WithModel and Prefix copies of one lineage while ExtendTo grows it
// twice, and on each grown instance as it is published: under -race
// this checks that checked-out evaluators never share state, and that
// evaluators sized before a growth are never bound to a larger instance.
// Every result must equal the same solve run alone on a lineage prepared
// afresh.
func TestEvaluatorPoolConcurrent(t *testing.T) {
	ctx := context.Background()
	prob := randomProblem(t, 5, 40, 200, 10, 2, 3)
	must := func(inst *Instance, err error) *Instance {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	steep := logistic.Model{Alpha: 6, Beta: 2}
	copies := func(inst *Instance) []*Instance {
		half, err := inst.Prefix(inst.Theta() / 2)
		if err != nil {
			t.Fatal(err)
		}
		return []*Instance{inst, must(inst.WithK(2)), must(inst.WithModel(steep)), half, must(half.WithModel(steep))}
	}
	methods := []string{"greedy", "bab", "babp"}
	opts := DefaultBABOptions()
	opts.MaxNodes = 20
	// alone solves every method on inst's copies, sequentially.
	alone := func(inst *Instance) [][]*Result {
		var out [][]*Result
		for _, c := range copies(inst) {
			var rs []*Result
			for _, m := range methods {
				res, err := Solve(ctx, c, m, opts)
				if err != nil {
					t.Fatal(err)
				}
				rs = append(rs, res)
			}
			out = append(out, rs)
		}
		return out
	}
	wants := map[int][][]*Result{}
	for _, theta := range []int{300, 600, 1200} {
		wants[theta] = alone(must(Prepare(ctx, prob, theta, 9)))
	}

	inst := must(Prepare(ctx, prob, 300, 9))
	var wg sync.WaitGroup
	// check solves inst's copies rounds times on a goroutine of its own.
	check := func(inst *Instance, rounds int) {
		cs := copies(inst)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, c := range cs {
					for j, m := range methods {
						got, err := Solve(ctx, c, m, opts)
						if err != nil {
							t.Error(err)
							return
						}
						want := wants[inst.Theta()][i][j]
						if got.Utility != want.Utility || got.Upper != want.Upper || got.Stats != want.Stats || !reflect.DeepEqual(got.Plan, want.Plan) {
							t.Errorf("θ %d copy %d %s: %+v, alone %+v", inst.Theta(), i, m, got, want)
							return
						}
					}
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		check(inst, 3)
	}
	grown := inst
	for _, theta := range []int{600, 1200} {
		grown = must(grown.ExtendTo(ctx, theta))
		check(grown, 1)
	}
	wg.Wait()
	if got := inst.lin.theta.Load(); got != 1200 {
		t.Fatalf("the lineage's θ is %d after growth to 1200", got)
	}
}

// TestStopReturnsIncumbent checks cancellation: bab and babp under a
// context already canceled return the root incumbent without expanding
// any node, with Upper at least Utility.
func TestStopReturnsIncumbent(t *testing.T) {
	prob := randomProblem(t, 11, 40, 200, 10, 2, 4)
	inst, err := Prepare(context.Background(), prob, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultBABOptions()
	opts.Tolerance = 0 // would search exhaustively if not stopped
	root, err := Solve(ctx, inst, "greedy", opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"bab", "babp"} {
		res, err := Solve(ctx, inst, method, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Nodes != 0 {
			t.Fatalf("%s: stopped search expanded %d nodes, want 0", method, res.Stats.Nodes)
		}
		if res.Utility <= 0 || res.Upper < res.Utility {
			t.Fatalf("%s: stopped search returned invalid pair (U=%v, L=%v)", method, res.Upper, res.Utility)
		}
		if method == "bab" && res.Utility != root.Utility {
			t.Fatalf("stopped incumbent %v != root greedy %v", res.Utility, root.Utility)
		}
	}
}
