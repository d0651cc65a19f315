package core

import (
	"context"
	"sync"
	"testing"
	"testing/quick"

	"oipa/internal/xrand"
)

// estimatesAgree asserts two instances estimate a plan bit-identically.
func estimatesAgree(t *testing.T, label string, a, b *Instance, plan Plan) {
	t.Helper()
	ua, err := a.EstimateAU(plan)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := b.EstimateAU(plan)
	if err != nil {
		t.Fatal(err)
	}
	if ua != ub {
		t.Fatalf("%s: estimates %v != %v", label, ua, ub)
	}
}

// TestMultiStepGrowthMatchesFreshPrepares is the multi-step growth
// property test: N successive ExtendTo steps over a random ascending θ
// schedule, with θ-prefix reads interleaved at every step, must yield
// estimates (and greedy solves) bit-identical to instances freshly
// prepared at each θ — all while concurrent estimator traffic hammers
// the previously published instances (run under -race in CI, this is
// the growth pipeline's end-to-end canary).
func TestMultiStepGrowthMatchesFreshPrepares(t *testing.T) {
	prob := randomProblem(t, 29, 50, 300, 12, 2, 3)
	plan := Plan{Seeds: [][]int32{{prob.Pool[0], prob.Pool[3]}, {prob.Pool[5]}}}

	f := func(scheduleSeed uint64) bool {
		r := xrand.New(scheduleSeed)
		theta := 100 + r.Intn(100)
		cur, err := Prepare(context.Background(), prob, theta, 11)
		if err != nil {
			t.Error(err)
			return false
		}

		// Concurrent estimator traffic over every published snapshot:
		// each reader pins the estimate of one frozen instance while the
		// writer below keeps extending the shared collection.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var mu sync.Mutex
		published := []*Instance{cur}
		wantAt := map[*Instance]float64{}
		w0, err := cur.EstimateAU(plan)
		if err != nil {
			t.Error(err)
			return false
		}
		wantAt[cur] = w0
		for reader := 0; reader < 3; reader++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					mu.Lock()
					inst := published[len(published)-1]
					want := wantAt[inst]
					mu.Unlock()
					est := inst.Index.MRR().NewEstimator()
					got, err := est.EstimateAU(plan.Seeds, inst.Problem.Model)
					if err != nil {
						t.Error(err)
						return
					}
					if got != want {
						t.Errorf("published estimate drifted: %v != %v", got, want)
						return
					}
				}
			}()
		}

		ok := true
		for step := 0; step < 4 && ok; step++ {
			theta += 50 + r.Intn(400)
			grown, err := cur.ExtendTo(context.Background(), theta)
			if err != nil {
				t.Error(err)
				ok = false
				break
			}
			fresh, err := Prepare(context.Background(), prob, theta, 11)
			if err != nil {
				t.Error(err)
				ok = false
				break
			}
			estimatesAgree(t, "grown-vs-fresh", grown, fresh, plan)

			// Interleaved prefix read at a random θ' below the current θ:
			// bit-identical to a fresh θ'-sized preparation.
			pTheta := 1 + r.Intn(theta)
			prefix, err := grown.Prefix(pTheta)
			if err != nil {
				t.Error(err)
				ok = false
				break
			}
			pFresh, err := Prepare(context.Background(), prob, pTheta, 11)
			if err != nil {
				t.Error(err)
				ok = false
				break
			}
			estimatesAgree(t, "prefix-vs-fresh", prefix, pFresh, plan)

			w, err := grown.EstimateAU(plan)
			if err != nil {
				t.Error(err)
				ok = false
				break
			}
			mu.Lock()
			published = append(published, grown)
			wantAt[grown] = w
			mu.Unlock()
			cur = grown
		}
		close(stop)
		wg.Wait()
		if !ok {
			return false
		}
		// The final lineage solves bit-identically to a fresh prepare.
		fresh, err := Prepare(context.Background(), prob, theta, 11)
		if err != nil {
			t.Error(err)
			return false
		}
		rg, err := SolveGreedy(cur, BABOptions{})
		if err != nil {
			t.Error(err)
			return false
		}
		fg, err := SolveGreedy(fresh, BABOptions{})
		if err != nil {
			t.Error(err)
			return false
		}
		if rg.Utility != fg.Utility {
			t.Errorf("greedy after multi-step growth %v != fresh %v", rg.Utility, fg.Utility)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}
