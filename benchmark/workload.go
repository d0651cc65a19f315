package main

import (
	"encoding/json"
	"fmt"

	"oipa/internal/serve"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// Registry outcomes a workload promises for a request; the oracle checks
// the response's cache flags against them.
const (
	expectMiss   = "miss"
	expectExtend = "extend"
	expectPrefix = "prefix"
	expectHit    = "hit"
)

// request is one generated call. Exactly one of Solve and Estimate is
// set. The server only ever sees body().
type request struct {
	Solve    *serve.SolveRequest    `json:"solve,omitempty"`
	Estimate *serve.EstimateRequest `json:"estimate,omitempty"`
	Expect   string                 `json:"expect"`
	// PlanFromPrev: estimate the plan this client's previous solve
	// returned (filled in at send time; solves are deterministic, so the
	// list still replays identically).
	PlanFromPrev bool `json:"plan_from_prev,omitempty"`
}

func (r *request) path() string {
	if r.Solve != nil {
		return "/v1/solve"
	}
	return "/v1/estimate"
}

func (r *request) body() []byte {
	var v interface{} = r.Estimate
	if r.Solve != nil {
		v = r.Solve
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: request does not marshal: %v", err)) // plain structs: a bug
	}
	return b
}

// inputs is what request generation may depend on besides the seed: the
// graph's topic count and the promoter pool (estimate plans seed pool
// members).
type inputs struct {
	Seed uint64
	Z    int
	Pool []int32
}

// workload is one traffic mix. Requests come from a deterministic
// per-client stream, so a run may stop at a time limit or a count and
// two runs of one seed still send identical prefixes.
type workload struct {
	Name    string
	Why     string
	Clients int
	// TracePerSecond sizes the fixed request count of the traced pass
	// (count = TracePerSecond × --seconds): fixed work makes every count
	// metric of that pass repeat exactly for one seed.
	TracePerSecond int
	// Warmup is sent by one client before measuring and counts as set-up.
	Warmup func(in inputs) []request
	// Next is request i of the given client.
	Next func(in inputs, client, i int) request
}

const (
	thetaBase   = 100_000
	coldWarmups = 2
	// One campaign per run made req_p50_ms follow the seed's campaign
	// (117-139 ms over ten seeds); four average that out.
	babCampaigns = 4
)

var ladderThetas = []int{50_000, 100_000, 200_000, 400_000}

// stream ids keep the random streams of the workloads apart.
const (
	streamCold = 1 + iota
	streamLadder
	streamBAB
	streamMix
	streamWarm
)

func derive(seed uint64, stream, client, i int) *xrand.SplitMix64 {
	return xrand.Derive(seed, uint64(stream)<<56|uint64(client)<<40|uint64(i))
}

// campaign draws the benchmark's campaign shape: three pieces, each a
// sparse two-topic mixture.
func campaign(rng *xrand.SplitMix64, z int, name string) topic.Campaign {
	c := topic.Campaign{Name: name}
	for j := 0; j < 3; j++ {
		c.Pieces = append(c.Pieces, topic.Piece{
			Name: fmt.Sprintf("%s-p%d", name, j),
			Dist: topic.Dirichlet(z, 0.5, 2, rng),
		})
	}
	return c
}

func solveReq(c topic.Campaign, method string, k, theta int, seed uint64) *serve.SolveRequest {
	return &serve.SolveRequest{Campaign: c, Method: method, K: k, Theta: theta, Seed: seed}
}

// warmCampaign is the i-th campaign a warm workload prepares in set-up.
func warmCampaign(in inputs, stream, i int) topic.Campaign {
	return campaign(derive(in.Seed, streamWarm, stream, i), in.Z, fmt.Sprintf("warm%d", i))
}

// prepareWarm is the warm-up that makes campaigns 0..n-1 resident.
func prepareWarm(in inputs, stream, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{Solve: solveReq(warmCampaign(in, stream, i), "babp", 10, thetaBase, 1), Expect: expectMiss}
	}
	return reqs
}

// poolPlan draws perPiece promoter-pool members for each of pieces
// seed sets: the shape of plan a what-if estimate asks about.
func poolPlan(rng *xrand.SplitMix64, pool []int32, pieces, perPiece int) [][]int32 {
	plan := make([][]int32, pieces)
	for j := range plan {
		for _, p := range rng.Sample(len(pool), perPiece) {
			plan[j] = append(plan[j], pool[p])
		}
	}
	return plan
}

func coldRequest(in inputs, client, i int) request {
	rng := derive(in.Seed, streamCold, client, i)
	c := campaign(rng, in.Z, fmt.Sprintf("cold-%d-%d", client, i))
	return request{Solve: solveReq(c, "babp", 10, thetaBase, 1+rng.Uint64n(1<<32)), Expect: expectMiss}
}

var workloads = []workload{
	{
		Name:           "cold_prepare",
		Why:            "every request a distinct campaign and seed: layout build, sampling, store and index build are ~98% of the work, the solver ~2%",
		Clients:        2,
		TracePerSecond: 4,
		Warmup: func(in inputs) []request {
			// Two throwaway misses open the connection and grow the heap;
			// client ids 2.. never collide with the measured streams.
			reqs := make([]request, coldWarmups)
			for i := range reqs {
				reqs[i] = coldRequest(in, 2, i)
			}
			return reqs
		},
		Next: coldRequest,
	},
	{
		Name:           "theta_ladder",
		Why:            "per campaign theta 50k-100k-200k-400k, an estimate at 50k, 400k again: in-place ExtendTo and index growth, prefix views and hits instead of fresh prepares",
		Clients:        2,
		TracePerSecond: 4,
		Warmup: func(in inputs) []request {
			return []request{coldRequest(in, 2, 0)}
		},
		Next: func(in inputs, client, i int) request {
			ladder, step := i/6, i%6
			c := campaign(derive(in.Seed, streamLadder, client, ladder), in.Z, fmt.Sprintf("ladder-%d-%d", client, ladder))
			switch {
			case step == 0:
				return request{Solve: solveReq(c, "babp", 10, ladderThetas[0], 1), Expect: expectMiss}
			case step < 4:
				return request{Solve: solveReq(c, "babp", 10, ladderThetas[step], 1), Expect: expectExtend}
			case step == 4:
				return request{
					Estimate:     &serve.EstimateRequest{Campaign: c, Theta: ladderThetas[0], Seed: 1},
					Expect:       expectPrefix,
					PlanFromPrev: true,
				}
			default:
				return request{Solve: solveReq(c, "babp", 10, ladderThetas[3], 1), Expect: expectHit}
			}
		},
	},
	{
		Name:           "warm_solve_bab",
		Why:            "one client, steep model (alpha 6, beta 2), 40-node bab/babp over four prepared campaigns: evaluator, bounds and search are ~99% of the request, sampling 0",
		Clients:        1,
		TracePerSecond: 2,
		Warmup: func(in inputs) []request {
			return prepareWarm(in, streamBAB, babCampaigns)
		},
		Next: func(in inputs, client, i int) request {
			// The grid campaign × method × k is walked in a fixed order, so
			// any forty consecutive requests are the same mix: what a seed
			// changes is the campaigns, not how often each shape is asked.
			c := warmCampaign(in, streamBAB, i%babCampaigns)
			method := []string{"bab", "babp"}[i/babCampaigns%2]
			r := solveReq(c, method, 6+2*(i/(2*babCampaigns)%5), thetaBase, 1)
			r.Alpha, r.Beta, r.MaxNodes, r.Tolerance = 6, 2, 40, 0.01
			return request{Solve: r, Expect: expectHit}
		},
	},
	{
		Name:           "warm_query_mix",
		Why:            "short requests on four prepared campaigns (60% estimate, 25% babp, 10% greedy, 5% prefix babp): HTTP, admission, obs and registry lookup are the whole cost",
		Clients:        2,
		TracePerSecond: 50,
		Warmup: func(in inputs) []request {
			return prepareWarm(in, streamMix, 4)
		},
		Next: func(in inputs, client, i int) request {
			// Each client keeps to its own two campaigns: two identical
			// solves in flight would coalesce, and a coalesced answer
			// measures the other client's request.
			rng := derive(in.Seed, streamMix, client, i)
			c := warmCampaign(in, streamMix, client+2*rng.Intn(2))
			switch u := rng.Float64(); {
			case u < 0.60:
				plan := poolPlan(rng, in.Pool, len(c.Pieces), 4)
				return request{Estimate: &serve.EstimateRequest{Campaign: c, Plan: plan, Theta: thetaBase, Seed: 1}, Expect: expectHit}
			case u < 0.85:
				return request{Solve: solveReq(c, "babp", []int{5, 10, 20}[rng.Intn(3)], thetaBase, 1), Expect: expectHit}
			case u < 0.95:
				return request{Solve: solveReq(c, "greedy", 10, thetaBase, 1), Expect: expectHit}
			default:
				return request{Solve: solveReq(c, "babp", 10, thetaBase/2, 1), Expect: expectPrefix}
			}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
