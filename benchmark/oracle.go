package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"oipa/internal/core"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/serve"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// The server's defaults the oracle mirrors (cmd/oipa-serve flags and
// serve.normalizeSolve).
const (
	serverPoolFrac     = 0.10
	serverPoolSeed     = 2
	serverDefaultTheta = 50_000
	parityEvery        = 16
)

var serverModel = logistic.Model{Alpha: 2, Beta: 1}

// oracle decides whether an answer is right. check applies the
// invariants every response must meet; recompute redoes a request
// in-process through the public layer functions and demands the exact
// utility and plan the server published.
type oracle struct {
	g      *graph.Graph
	pool   []int32
	inPool map[int32]bool
	// prepared caches fresh preparations by (campaign, seed, theta); the
	// warm workloads recompute many requests over a handful of instances.
	prepared map[string]*preparedInstance
	order    []string
}

type preparedInstance struct {
	inst  *core.Instance
	evals *core.EvaluatorPool
}

const oracleCacheSize = 8

func newOracle(g *graph.Graph, pool []int32) *oracle {
	o := &oracle{g: g, pool: pool, inPool: make(map[int32]bool, len(pool)), prepared: map[string]*preparedInstance{}}
	for _, v := range pool {
		o.inPool[v] = true
	}
	return o
}

// sampled reports whether a request is recomputed exactly: every
// sixteenth of each client's stream, starting at a seeded offset.
func sampled(seed uint64, s *sample) bool {
	offset := xrand.Hash(seed, uint64(s.Client)) % parityEvery
	return (uint64(s.Index)+offset)%parityEvery == 0
}

// check applies the per-response invariants. A nil error means the
// answer passed.
func (o *oracle) check(s *sample) error {
	if s.Err != nil {
		return fmt.Errorf("transport: %w", s.Err)
	}
	if s.Status != http.StatusOK {
		return fmt.Errorf("status %d: %s", s.Status, strings.TrimSpace(string(s.Body)))
	}
	if s.Req.Solve != nil {
		return o.checkSolve(s)
	}
	return o.checkEstimate(s)
}

func (o *oracle) checkSolve(s *sample) error {
	req := s.Req.Solve
	var resp serve.SolveResponse
	if err := json.Unmarshal(s.Body, &resp); err != nil {
		return fmt.Errorf("decode solve response: %w", err)
	}
	if resp.Theta != req.Theta || resp.K != req.K {
		return fmt.Errorf("echo: theta %d k %d, sent theta %d k %d", resp.Theta, resp.K, req.Theta, req.K)
	}
	if resp.Degraded {
		return fmt.Errorf("degraded answer")
	}
	if len(resp.Plan) != len(req.Campaign.Pieces) {
		return fmt.Errorf("plan has %d seed sets for %d pieces", len(resp.Plan), len(req.Campaign.Pieces))
	}
	size := 0
	for _, seeds := range resp.Plan {
		size += len(seeds)
		for _, v := range seeds {
			if !o.inPool[v] {
				return fmt.Errorf("plan seed %d outside the promoter pool", v)
			}
		}
	}
	if size > req.K {
		return fmt.Errorf("plan size %d above budget %d", size, req.K)
	}
	if (req.Method == "bab" || req.Method == "babp") && resp.Utility > resp.Upper {
		return fmt.Errorf("utility %v above its upper bound %v", resp.Utility, resp.Upper)
	}
	return checkOutcome(s.Req.Expect, resp.CacheHit, resp.PrefixHit, resp.Extended)
}

func (o *oracle) checkEstimate(s *sample) error {
	var resp serve.EstimateResponse
	if err := json.Unmarshal(s.Body, &resp); err != nil {
		return fmt.Errorf("decode estimate response: %w", err)
	}
	if resp.Theta != s.Req.Estimate.Theta {
		return fmt.Errorf("echo: theta %d, sent %d", resp.Theta, s.Req.Estimate.Theta)
	}
	if resp.EstimateMode != "exact" {
		return fmt.Errorf("estimate mode %q with sketches off", resp.EstimateMode)
	}
	return checkOutcome(s.Req.Expect, resp.CacheHit, resp.PrefixHit, resp.Extended)
}

// checkOutcome compares the response's cache flags with the registry
// outcome the workload promised for this request.
func checkOutcome(expect string, cacheHit, prefixHit, extended bool) error {
	got := expectMiss
	switch {
	case extended:
		got = expectExtend
	case prefixHit:
		got = expectPrefix
	case cacheHit:
		got = expectHit
	}
	if got != expect {
		return fmt.Errorf("registry outcome %s, workload promises %s", got, expect)
	}
	return nil
}

// recompute redoes the request from the bytes the server saw and
// compares utility and plan exactly.
func (o *oracle) recompute(s *sample) error {
	if s.Req.Solve != nil {
		return o.recomputeSolve(s)
	}
	return o.recomputeEstimate(s)
}

func (o *oracle) recomputeSolve(s *sample) error {
	var req serve.SolveRequest
	if err := json.Unmarshal(s.Sent, &req); err != nil {
		return fmt.Errorf("decode sent solve: %w", err)
	}
	var resp serve.SolveResponse
	if err := json.Unmarshal(s.Body, &resp); err != nil {
		return fmt.Errorf("decode solve response: %w", err)
	}
	// serve.normalizeSolve's defaults.
	if req.Method == "" {
		req.Method = "babp"
	}
	if req.Theta == 0 {
		req.Theta = serverDefaultTheta
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Epsilon == 0 {
		req.Epsilon = 0.5
	}
	if req.Tolerance == 0 {
		req.Tolerance = 0.01
	}
	p, err := o.instance(req.Campaign, req.Theta, req.Seed)
	if err != nil {
		return err
	}
	inst, err := p.inst.WithK(req.K)
	if err != nil {
		return err
	}
	if m := modelOf(req.Alpha, req.Beta); m != serverModel {
		if inst, err = inst.WithModel(m); err != nil {
			return err
		}
	}
	opts := core.BABOptions{
		Epsilon:        req.Epsilon,
		Tolerance:      req.Tolerance,
		MaxNodes:       req.MaxNodes,
		RawGap:         true,
		FillAfterFloor: true,
	}
	var res *core.Result
	switch req.Method {
	case "bab":
		res, err = p.evals.SolveBAB(inst, opts)
	case "babp":
		res, err = p.evals.SolveBABP(inst, opts)
	case "greedy":
		res, err = p.evals.SolveGreedy(inst, opts)
	default:
		return fmt.Errorf("oracle: method %q is not part of any workload", req.Method)
	}
	if err != nil {
		return fmt.Errorf("oracle solve: %w", err)
	}
	if res.Utility != resp.Utility {
		return fmt.Errorf("parity: utility %v, recomputed %v", resp.Utility, res.Utility)
	}
	if !samePlan(res.Plan.Seeds, resp.Plan) {
		return fmt.Errorf("parity: plan %v, recomputed %v", resp.Plan, res.Plan.Seeds)
	}
	return nil
}

func (o *oracle) recomputeEstimate(s *sample) error {
	var req serve.EstimateRequest
	if err := json.Unmarshal(s.Sent, &req); err != nil {
		return fmt.Errorf("decode sent estimate: %w", err)
	}
	var resp serve.EstimateResponse
	if err := json.Unmarshal(s.Body, &resp); err != nil {
		return fmt.Errorf("decode estimate response: %w", err)
	}
	if req.Theta == 0 {
		req.Theta = serverDefaultTheta
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	p, err := o.instance(req.Campaign, req.Theta, req.Seed)
	if err != nil {
		return err
	}
	u, err := p.inst.Index.MRR().NewEstimator().EstimateAU(req.Plan, modelOf(req.Alpha, req.Beta))
	if err != nil {
		return fmt.Errorf("oracle estimate: %w", err)
	}
	if u != resp.Utility {
		return fmt.Errorf("parity: utility %v, recomputed %v", resp.Utility, u)
	}
	return nil
}

func modelOf(alpha, beta float64) logistic.Model {
	m := serverModel
	if alpha != 0 {
		m.Alpha = alpha
	}
	if beta != 0 {
		m.Beta = beta
	}
	return m
}

func samePlan(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if len(a[j]) != len(b[j]) {
			return false
		}
		for i := range a[j] {
			if a[j][i] != b[j][i] {
				return false
			}
		}
	}
	return true
}

// instance prepares (campaign, theta, seed) from scratch: fresh layouts,
// fresh samples, fresh index. A ladder answer grown in place or served
// as a prefix must equal it bit for bit.
func (o *oracle) instance(c topic.Campaign, theta int, seed uint64) (*preparedInstance, error) {
	var key strings.Builder
	fmt.Fprintf(&key, "%d|%d|", theta, seed)
	for _, piece := range c.Pieces {
		fmt.Fprintf(&key, "%v%x|", piece.Dist.Idx, piece.Dist.Val)
	}
	k := key.String()
	if p, ok := o.prepared[k]; ok {
		return p, nil
	}
	p, err := prepareFresh(o.g, o.pool, c, theta, seed)
	if err != nil {
		return nil, fmt.Errorf("oracle prepare: %w", err)
	}
	if len(o.order) >= oracleCacheSize {
		delete(o.prepared, o.order[0])
		o.order = o.order[1:]
	}
	o.prepared[k] = p
	o.order = append(o.order, k)
	return p, nil
}

func buildLayouts(g *graph.Graph, c topic.Campaign) ([]*graph.PieceLayout, error) {
	layouts := make([]*graph.PieceLayout, len(c.Pieces))
	for j, piece := range c.Pieces {
		lay, err := g.Layout(g.PieceProbs(piece.Dist))
		if err != nil {
			return nil, err
		}
		layouts[j] = lay
	}
	return layouts, nil
}

func prepareFresh(g *graph.Graph, pool []int32, c topic.Campaign, theta int, seed uint64) (*preparedInstance, error) {
	if err := c.Validate(g.Z()); err != nil {
		return nil, err
	}
	layouts, err := buildLayouts(g, c)
	if err != nil {
		return nil, err
	}
	prob := &core.Problem{G: g, Campaign: c, Pool: pool, K: 1, Model: serverModel}
	inst, err := core.PrepareLayouts(prob, layouts, theta, seed)
	if err != nil {
		return nil, err
	}
	return &preparedInstance{inst: inst, evals: core.NewEvaluatorPool(inst)}, nil
}
