package gen

import (
	"fmt"

	"oipa/internal/graph"
	"oipa/internal/topic"
	"oipa/internal/xrand"
)

// Dataset bundles a generated influence graph with the user interests it
// was derived from and the metadata reported in the paper's Table III.
type Dataset struct {
	Name      string
	G         *graph.Graph
	Interests []topic.Vector
}

// Z returns the topic-space size.
func (d *Dataset) Z() int { return d.G.Z() }

// Summary holds the Table III row of a dataset.
type Summary struct {
	Name      string
	Vertices  int
	Edges     int
	AvgDegree float64
	Topics    int
	TopicNNZ  float64
}

// Summarize computes the Table III row.
func (d *Dataset) Summarize() Summary {
	return Summary{
		Name:      d.Name,
		Vertices:  d.G.N(),
		Edges:     d.G.M(),
		AvgDegree: d.G.AvgDegree(),
		Topics:    d.G.Z(),
		TopicNNZ:  d.G.AvgTopicNNZ(),
	}
}

// Preset identifies one of the paper's three datasets.
type Preset string

// The three dataset presets mirroring the paper's Table III.
const (
	PresetLastfm Preset = "lastfm"
	PresetDBLP   Preset = "dblp"
	PresetTweet  Preset = "tweet"
)

// Presets lists all dataset presets in paper order.
var Presets = []Preset{PresetLastfm, PresetDBLP, PresetTweet}

// Build generates the named dataset at the given scale (1 = the paper's
// full size; the experiment defaults in internal/exp keep lastfm whole
// and shrink dblp to 1/50 and tweet to 1/200, laptop scale).
func Build(p Preset, scale float64, seed uint64) (*Dataset, error) {
	switch p {
	case PresetLastfm:
		return LastfmSim(scale, seed)
	case PresetDBLP:
		return DBLPSim(scale, seed)
	case PresetTweet:
		return TweetSim(scale, seed)
	default:
		return nil, fmt.Errorf("gen: unknown preset %q", p)
	}
}

func scaled(base int, scale float64, min int) int {
	v := int(float64(base) * scale)
	if v < min {
		v = min
	}
	return v
}

// LastfmSim mirrors the lastfm dataset: a small, dense social music
// network (1.3K users, 15K edges, 20 topics learned by TIC from action
// logs). Friendships are reciprocal about half the time and edges carry a
// couple of active topics.
func LastfmSim(scale float64, seed uint64) (*Dataset, error) {
	rng := xrand.New(seed)
	n := scaled(1300, scale, 50)
	topo := TopologyConfig{
		N: n, M: scaled(15000, scale, 200),
		Alpha: 2.4, Reciprocal: 0.5, PrefMix: 0.7,
	}
	tc := TopicConfig{
		Z: 20, UserKeep: 4, EdgeKeep: 2,
		Concentration: 0.3, ProbScale: 0.12, MaxProb: 0.8,
	}
	return assemble("lastfm", topo, tc, rng)
}

// DBLPSim mirrors the DBLP co-author graph (0.5M nodes, 6M edges, 9
// research-field topics): co-authorship is symmetric, so edges are fully
// reciprocal, and field vectors are computed from the authors' venues —
// here from their planted interests.
func DBLPSim(scale float64, seed uint64) (*Dataset, error) {
	rng := xrand.New(seed)
	n := scaled(500000, scale, 100)
	topo := TopologyConfig{
		N: n, M: scaled(6000000, scale, 500),
		Alpha: 2.3, Reciprocal: 1.0, PrefMix: 0.6,
	}
	tc := TopicConfig{
		Z: 9, UserKeep: 3, EdgeKeep: 2,
		Concentration: 0.25, ProbScale: 0.1, MaxProb: 0.6,
	}
	return assemble("dblp", topo, tc, rng)
}

// TweetSim mirrors the tweet retweet/reply network (10M nodes, 12M edges,
// 50 LDA topics, average degree 1.2, and — the paper's key observation —
// only about 1.5 non-zero topic probabilities per edge, which makes
// single-piece strategies collapse).
func TweetSim(scale float64, seed uint64) (*Dataset, error) {
	rng := xrand.New(seed)
	n := scaled(10000000, scale, 200)
	topo := TopologyConfig{
		N: n, M: scaled(12000000, scale, 240),
		Alpha: 2.2, Reciprocal: 0.1, PrefMix: 0.8,
	}
	tc := TopicConfig{
		Z: 50, UserKeep: 3, EdgeKeep: 2, EdgeKeepMin: 1,
		Concentration: 0.15, ProbScale: 0.35, MaxProb: 0.9,
	}
	return assemble("tweet", topo, tc, rng)
}

func assemble(name string, topo TopologyConfig, tc TopicConfig, rng *xrand.SplitMix64) (*Dataset, error) {
	edges, err := GenerateEdges(topo, rng)
	if err != nil {
		return nil, fmt.Errorf("gen: %s topology: %w", name, err)
	}
	interests, err := Interests(topo.N, tc, rng)
	if err != nil {
		return nil, fmt.Errorf("gen: %s interests: %w", name, err)
	}
	g, err := AttachTopics(topo.N, edges, interests, tc, rng)
	if err != nil {
		return nil, fmt.Errorf("gen: %s topics: %w", name, err)
	}
	return &Dataset{Name: name, G: g, Interests: interests}, nil
}

// PromoterPool selects the available promoter set V^p: the paper samples
// 10% of users "since in reality not all users are eligible for promoting
// ads" (§VI-A). To keep the pool interesting it is sampled with a bias
// toward higher out-degree users (half preferential, half uniform).
func PromoterPool(g *graph.Graph, fraction float64, seed uint64) ([]int32, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("gen: pool fraction %v outside (0,1]", fraction)
	}
	rng := xrand.New(seed)
	n := g.N()
	want := int(float64(n) * fraction)
	if want < 1 {
		want = 1
	}
	chosen := make(map[int32]bool, want)
	out := make([]int32, 0, want)
	add := func(v int32) {
		if !chosen[v] {
			chosen[v] = true
			out = append(out, v)
		}
	}
	// Preferential half: endpoints of random edges (degree-proportional).
	m := g.M()
	for len(out) < want/2 && m > 0 {
		eid := int32(rng.Intn(m))
		u, _ := g.EdgeEndpoints(eid)
		add(u)
	}
	// Uniform half (also the fallback when the graph has no edges).
	attempts := 0
	for len(out) < want && attempts < 100*n+100 {
		attempts++
		add(int32(rng.Intn(n)))
	}
	return out, nil
}
