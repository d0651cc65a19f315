package exp

import (
	"context"
	"fmt"

	"oipa/internal/core"
	"oipa/internal/gen"
	"oipa/internal/graph"
	"oipa/internal/logistic"
	"oipa/internal/topic"
	"oipa/internal/traverse"
	"oipa/internal/xrand"
)

// FigureMultiplex sweeps the number of diffusion layers: layer count 1 is
// the plain single-graph workload, and each further point stacks one more
// independently generated instance of the same preset (same scale, offset
// seed) into a multiplex over the shared node universe. Utility grows
// with the layer count — every layer adds diffusion routes — which is the
// single-vs-multiplex spread comparison the serve tier's "layers" request
// field exposes. The campaign, pool, model, budget, and sampling seed are
// held fixed across points so the utilities are directly comparable.
func FigureMultiplex(c Config, maxLayers int) ([]Row, error) {
	if maxLayers < 1 {
		return nil, fmt.Errorf("exp: multiplex sweep needs at least 1 layer, got %d", maxLayers)
	}
	if maxLayers > 64 {
		return nil, fmt.Errorf("exp: %d layers beyond the serve tier's 64-layer key limit", maxLayers)
	}
	w, err := BuildWorkload(c)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultBABOptions()
	opts.Epsilon = c.Epsilon
	opts.MaxNodes = maxSearchNodes

	res, err := core.SolveBABP(w.Instance, opts)
	if err != nil {
		return nil, fmt.Errorf("exp: multiplex layers=1: %w", err)
	}
	rows := []Row{{
		Dataset: w.Dataset.Name,
		Method:  MethodBABP,
		Param:   "layers",
		X:       1,
		Utility: res.Utility,
		Seconds: res.Elapsed.Seconds(),
	}}

	layers := []graph.MultiplexLayer{{G: w.Dataset.G}}
	for a := 2; a <= maxLayers; a++ {
		// A fresh topology of the same preset and scale: same node count
		// (the generators size deterministically from scale), so the
		// identity embedding into the shared universe is total.
		extra, err := gen.Build(c.Preset, c.Scale, c.Seed+uint64(a)*7919)
		if err != nil {
			return nil, fmt.Errorf("exp: multiplex layer %d: %w", a, err)
		}
		layers = append(layers, graph.MultiplexLayer{G: extra.G})
		sel := make([]graph.MultiplexLayer, len(layers))
		copy(sel, layers)
		mx, err := graph.NewMultiplex(w.Dataset.G.N(), sel, 0)
		if err != nil {
			return nil, fmt.Errorf("exp: multiplex layer %d: %w", a, err)
		}
		prob := &core.Problem{
			Mux:      mx,
			Campaign: w.Campaign,
			Pool:     w.Pool,
			K:        c.K,
			Model:    c.Model(),
		}
		inst, err := core.Prepare(context.Background(), prob, c.Theta, c.Seed+3000)
		if err != nil {
			return nil, fmt.Errorf("exp: multiplex layers=%d: %w", a, err)
		}
		res, err := core.SolveBABP(inst, opts)
		if err != nil {
			return nil, fmt.Errorf("exp: multiplex layers=%d: %w", a, err)
		}
		rows = append(rows, Row{
			Dataset: w.Dataset.Name,
			Method:  MethodBABP,
			Param:   "layers",
			X:       float64(a),
			Utility: res.Utility,
			Seconds: res.Elapsed.Seconds(),
		})
	}
	return rows, nil
}

// MultiplexCheck is the cross-check bundle the CI smoke test compares
// against a live oipa-serve answer: a solve over the same multiplex with
// the server's exact preparation and solver settings, plus a per-sample
// replay of every MRR sample through the explicit gateway-node combined
// graph. ReductionOK certifies that the layer-coupled sampler and the
// combined-graph reduction agree verbatim on this workload.
type MultiplexCheck struct {
	Layers         int       `json:"layers"`
	UniverseN      int       `json:"universe_n"`
	Theta          int       `json:"theta"`
	Seed           uint64    `json:"seed"`
	K              int       `json:"k"`
	Pieces         int       `json:"pieces"`
	Utility        float64   `json:"utility"`
	Upper          float64   `json:"upper"`
	Plan           [][]int32 `json:"plan"`
	ReductionOK    bool      `json:"reduction_ok"`
	SamplesChecked int       `json:"samples_checked"`
}

// CheckMultiplex loads the base graph and the extra layer files, prepares
// the multiplex instance exactly as a default-flag oipa-serve would for a
// solve with "layers" selecting every layer (pool fraction 0.10 at pool
// seed 2, beta/alpha 0.5, an l-piece single-topic campaign on topics
// 0..l-1), runs the server's "bab" configuration, and replays
// every sample against the combined-graph reduction. The returned bundle
// is what `oipa-exp -exp multiplex-check` prints as JSON for the CI jq
// comparison against the live /v1/solve response.
func CheckMultiplex(basePath string, layerPaths []string, l, k, theta int, seed uint64) (*MultiplexCheck, error) {
	base, err := graph.Load(basePath)
	if err != nil {
		return nil, fmt.Errorf("exp: base graph: %w", err)
	}
	layers := []graph.MultiplexLayer{{G: base}}
	for _, p := range layerPaths {
		lg, err := graph.Load(p)
		if err != nil {
			return nil, fmt.Errorf("exp: layer %s: %w", p, err)
		}
		layers = append(layers, graph.MultiplexLayer{G: lg})
	}
	mx, err := graph.NewMultiplex(base.N(), layers, 0)
	if err != nil {
		return nil, err
	}
	if l < 1 || l > base.Z() {
		return nil, fmt.Errorf("exp: %d pieces outside [1, %d]", l, base.Z())
	}
	campaign := topic.Campaign{Name: "multiplex-check"}
	for j := 0; j < l; j++ {
		campaign.Pieces = append(campaign.Pieces, topic.Piece{
			Name: fmt.Sprintf("piece-%d", j),
			Dist: topic.SingleTopic(int32(j)),
		})
	}
	// oipa-serve defaults: -pool 0.10 -poolseed 2 -ratio 0.5 (beta=1).
	pool, err := gen.PromoterPool(base, 0.10, 2)
	if err != nil {
		return nil, err
	}
	prob := &core.Problem{
		Mux:      mx,
		Campaign: campaign,
		Pool:     pool,
		K:        k,
		Model:    logistic.Model{Alpha: 2, Beta: 1},
	}
	inst, err := core.Prepare(context.Background(), prob, theta, seed)
	if err != nil {
		return nil, err
	}
	// The serve tier's "bab" method with default options, uncapped.
	// Bit-for-bit the solve the server runs, so float64 equality holds
	// between this utility/plan and the /v1/solve response.
	res, err := core.SolveBAB(inst, core.DefaultBABOptions())
	if err != nil {
		return nil, err
	}
	out := &MultiplexCheck{
		Layers:    mx.L(),
		UniverseN: mx.N(),
		Theta:     theta,
		Seed:      seed,
		K:         k,
		Pieces:    campaign.L(),
		Utility:   res.Utility,
		Upper:     res.Upper,
		Plan:      res.Plan.Seeds,
	}
	if out.Plan == nil {
		out.Plan = [][]int32{}
	}
	out.ReductionOK, out.SamplesChecked, err = replayCombined(mx, campaign, inst, theta, seed)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// replayCombined re-derives every sample's RNG and walks the explicit
// gateway-node combined graph with the plain single-graph walker; the
// filtered visit order must reproduce each stored MRR set verbatim.
func replayCombined(mx *graph.Multiplex, campaign topic.Campaign, inst *core.Instance, theta int, seed uint64) (bool, int, error) {
	comb, err := mx.CombinedGraph()
	if err != nil {
		return false, 0, err
	}
	combLays := make([]*graph.PieceLayout, campaign.L())
	for j, piece := range campaign.Pieces {
		lay, err := comb.Layout(comb.PieceProbs(piece.Dist))
		if err != nil {
			return false, 0, err
		}
		combLays[j] = lay
	}
	w := traverse.NewWalker(comb.N())
	n := uint64(mx.N())
	for i := 0; i < theta; i++ {
		rng := xrand.Derive(seed, uint64(i))
		root := int32(rng.Uint64n(n))
		if root != inst.MRR.Root(i) {
			return false, i, nil
		}
		for j, lay := range combLays {
			visited := w.RunFrom(lay.InOff, lay.InFrom, lay.InDist, lay.InProbs, root, rng)
			var want []int32
			for _, v := range visited {
				if int(v) < mx.N() {
					want = append(want, v)
				}
			}
			got := inst.MRR.Set(i, j)
			if len(got) != len(want) {
				return false, i, nil
			}
			for x := range got {
				if got[x] != want[x] {
					return false, i, nil
				}
			}
		}
	}
	return true, theta, nil
}
