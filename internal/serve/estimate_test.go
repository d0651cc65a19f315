package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestEstimateIndexMatchesScan: /v1/estimate answers a plan of pool
// members through the inverted index and anything else through the θ-scan,
// and either way the served utility is the scan's float64 bit for bit —
// before and after growth, on a θ-prefix of the grown artifact, with
// duplicate seeds and empty seed sets — while a malformed plan gets the
// scan's 400 text.
func TestEstimateIndexMatchesScan(t *testing.T) {
	s := testServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g, pool := testGraph(t)
	off := int32(0)
	for slices.Contains(pool, off) {
		off++
	}
	camp := testCampaign(0, 1)
	a, b, c := pool[0], pool[1], pool[2]

	cases := []struct {
		name    string
		theta   int
		plan    [][]int32
		indexed bool   // every seed a pool member: the index answers
		outcome string // the registry's
	}{
		{"before growth", 400, [][]int32{{a, b}, {c}}, true, "miss"},
		{"full theta after growth", 800, [][]int32{{a, b}, {c}}, true, "extend"},
		{"prefix after growth", 300, [][]int32{{a, b}, {c}}, true, "prefix"},
		{"duplicate seeds within a piece", 800, [][]int32{{a, a, b}, {c, c}}, true, "hit"},
		{"empty seed set for a piece", 800, [][]int32{{a, b}, {}}, true, "hit"},
		{"off-pool seed", 800, [][]int32{{a, off}, {c}}, false, "hit"},
		{"id beyond the graph", 800, [][]int32{{a, int32(g.N())}, {c}}, false, "hit"},
		{"negative id", 800, [][]int32{{-1, a}, {c}}, false, "hit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp EstimateResponse
			req := EstimateRequest{Campaign: camp, Plan: tc.plan, Theta: tc.theta}
			if code, raw := postJSON(t, ts, "/v1/estimate", req, &resp); code != http.StatusOK {
				t.Fatalf("status %d: %s", code, raw)
			}
			outcome := "miss"
			switch {
			case resp.Extended:
				outcome = "extend"
			case resp.PrefixHit:
				outcome = "prefix"
			case resp.CacheHit:
				outcome = "hit"
			}
			if resp.EstimateMode != "exact" || outcome != tc.outcome {
				t.Fatalf("mode %q, registry outcome %s; want exact, %s", resp.EstimateMode, outcome, tc.outcome)
			}
			art, _, err := s.reg.Instance(context.Background(), camp, tc.theta, 1)
			if err != nil {
				t.Fatal(err)
			}
			est := art.estimator()
			want, err := est.EstimateAUPrefix(tc.plan, s.cfg.Model, tc.theta)
			art.putEstimator(est)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(resp.Utility) != math.Float64bits(want) {
				t.Fatalf("served %v, scan %v", resp.Utility, want)
			}
			inst, err := art.InstanceAt(tc.theta)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.Index.EstimateAU(tc.plan, s.cfg.Model); (err == nil) != tc.indexed {
				t.Fatalf("index estimate error %v, want the index to answer: %v", err, tc.indexed)
			}
		})
	}

	// Concurrent estimates at two θ of one artifact share the server's
	// scratch pool; every answer stays the scan's.
	t.Run("concurrent", func(t *testing.T) {
		plan := [][]int32{{a, b}, {c}}
		thetas := []int{300, 800}
		want := map[int]float64{}
		for _, theta := range thetas {
			art, _, err := s.reg.Instance(context.Background(), camp, theta, 1)
			if err != nil {
				t.Fatal(err)
			}
			est := art.estimator()
			want[theta], err = est.EstimateAUPrefix(plan, s.cfg.Model, theta)
			art.putEstimator(est)
			if err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					theta := thetas[(w+i)%2]
					body, _ := json.Marshal(EstimateRequest{Campaign: camp, Plan: plan, Theta: theta})
					rec := httptest.NewRecorder()
					s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(string(body))))
					var resp EstimateResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
						t.Errorf("θ %d: status %d, %v", theta, rec.Code, err)
						return
					}
					if math.Float64bits(resp.Utility) != math.Float64bits(want[theta]) {
						t.Errorf("θ %d: served %v, scan %v", theta, resp.Utility, want[theta])
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})

	t.Run("wrong piece count", func(t *testing.T) {
		plan := [][]int32{{a}}
		code, raw := postJSON(t, ts, "/v1/estimate", EstimateRequest{Campaign: camp, Plan: plan, Theta: 800}, nil)
		art, _, err := s.reg.Instance(context.Background(), camp, 800, 1)
		if err != nil {
			t.Fatal(err)
		}
		est := art.estimator()
		_, scanErr := est.EstimateAUPrefix(plan, s.cfg.Model, 800)
		art.putEstimator(est)
		var body struct{ Error string }
		if err := json.Unmarshal([]byte(raw), &body); err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest || scanErr == nil || body.Error != scanErr.Error() {
			t.Fatalf("status %d, error %q; want 400 and the scan's %v", code, body.Error, scanErr)
		}
	})
}

// TestEstimateAllocations pins that a served exact estimate allocates
// nothing θ-sized: the index scratch comes from the server-wide pool, so
// at θ 100 000 the bytes allocated per request stay far below one
// scratch (five bytes per sample).
func TestEstimateAllocations(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops pooled scratch at random")
	}
	const theta = 100_000
	s := testServer(t, func(cfg *Config) { cfg.MaxTheta = theta })
	_, pool := testGraph(t)
	body, err := json.Marshal(EstimateRequest{Campaign: testCampaign(0, 1), Plan: [][]int32{pool[:3], pool[3:5]}, Theta: theta})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	estimate := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	estimate() // prepares the artifact and grows one pooled scratch
	estimate()

	const requests = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		estimate()
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / requests
	if scratch := uint64(5 * theta); perRequest > scratch/8 {
		t.Fatalf("%d bytes allocated per estimate; one θ-sized scratch is %d", perRequest, scratch)
	}
	t.Logf("%d bytes allocated per estimate at θ %d", perRequest, theta)
}
