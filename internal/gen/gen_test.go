package gen

import (
	"math"
	"slices"
	"testing"

	"oipa/internal/stats"
	"oipa/internal/xrand"
)

func TestTopologyConfigValidate(t *testing.T) {
	good := TopologyConfig{N: 10, M: 20, Alpha: 2.5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []TopologyConfig{
		{N: 1, M: 0, Alpha: 2.5},
		{N: 10, M: -1, Alpha: 2.5},
		{N: 3, M: 100, Alpha: 2.5}, // too many edges for simple digraph
		{N: 10, M: 5, Alpha: 0.5},
		{N: 10, M: 5, Alpha: 2.5, Reciprocal: 2},
		{N: 10, M: 5, Alpha: 2.5, PrefMix: -0.1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d validated: %+v", i, cfg)
		}
	}
}

func TestPowerLawOutDegreesSumsToM(t *testing.T) {
	rng := xrand.New(1)
	for _, cfg := range []TopologyConfig{
		{N: 1000, M: 5000, Alpha: 2.3},
		{N: 1000, M: 800, Alpha: 2.3},   // sparse: mean < 1
		{N: 50, M: 49 * 25, Alpha: 2.5}, // half-dense
	} {
		deg, err := PowerLawOutDegrees(cfg, rng)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, d := range deg {
			if d < 0 {
				t.Fatal("negative degree")
			}
			total += int(d)
		}
		if total != cfg.M {
			t.Fatalf("degree sum %d != M %d for %+v", total, cfg.M, cfg)
		}
	}
}

func TestGenerateEdgesSimpleDigraph(t *testing.T) {
	rng := xrand.New(7)
	cfg := TopologyConfig{N: 500, M: 3000, Alpha: 2.4, Reciprocal: 0.3, PrefMix: 0.7}
	edges, err := GenerateEdges(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != cfg.M {
		t.Fatalf("generated %d edges, want %d", len(edges), cfg.M)
	}
	seen := map[[2]int32]bool{}
	for _, e := range edges {
		if e.From == e.To {
			t.Fatal("self loop generated")
		}
		if e.From < 0 || int(e.From) >= cfg.N || e.To < 0 || int(e.To) >= cfg.N {
			t.Fatalf("edge out of range: %+v", e)
		}
		k := [2]int32{e.From, e.To}
		if seen[k] {
			t.Fatalf("duplicate edge %+v", e)
		}
		seen[k] = true
	}
}

func TestGenerateEdgesHeavyTail(t *testing.T) {
	// The in-degree distribution under preferential attachment must be
	// heavy-tailed: its maximum should far exceed the mean.
	rng := xrand.New(3)
	cfg := TopologyConfig{N: 4000, M: 20000, Alpha: 2.3, PrefMix: 0.9}
	edges, err := GenerateEdges(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	indeg := make([]float64, cfg.N)
	for _, e := range edges {
		indeg[e.To]++
	}
	max := slices.Max(indeg)
	mean := stats.Mean(indeg)
	if max < 8*mean {
		t.Fatalf("in-degree max %v not heavy-tailed vs mean %v", max, mean)
	}
	gini, err := stats.GiniCoefficient(indeg)
	if err != nil {
		t.Fatal(err)
	}
	if gini < 0.3 {
		t.Fatalf("in-degree Gini %v too equal for a preferential graph", gini)
	}
}

func TestGenerateEdgesReciprocity(t *testing.T) {
	rng := xrand.New(11)
	cfg := TopologyConfig{N: 800, M: 6000, Alpha: 2.4, Reciprocal: 1.0, PrefMix: 0.5}
	edges, err := GenerateEdges(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	set := map[[2]int32]bool{}
	for _, e := range edges {
		set[[2]int32{e.From, e.To}] = true
	}
	recip := 0
	for _, e := range edges {
		if set[[2]int32{e.To, e.From}] {
			recip++
		}
	}
	if frac := float64(recip) / float64(len(edges)); frac < 0.8 {
		t.Fatalf("reciprocity fraction %v too low for Reciprocal=1", frac)
	}
}

func TestLastfmSimShape(t *testing.T) {
	d, err := LastfmSim(1, 42)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Summarize()
	if s.Vertices != 1300 {
		t.Fatalf("lastfm vertices = %d", s.Vertices)
	}
	if s.Edges != 15000 {
		t.Fatalf("lastfm edges = %d", s.Edges)
	}
	if s.Topics != 20 {
		t.Fatalf("lastfm topics = %d", s.Topics)
	}
	if err := d.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Interests) != 1300 {
		t.Fatalf("interest count = %d", len(d.Interests))
	}
}

func TestDBLPSimScaledShape(t *testing.T) {
	d, err := DBLPSim(0.01, 7) // 5K nodes, 60K edges
	if err != nil {
		t.Fatal(err)
	}
	s := d.Summarize()
	if s.Vertices != 5000 || s.Edges != 60000 {
		t.Fatalf("dblp scaled n/m = %d/%d", s.Vertices, s.Edges)
	}
	if s.Topics != 9 {
		t.Fatalf("dblp topics = %d", s.Topics)
	}
	// Co-author graphs are reciprocal; check a sample.
	g := d.G
	recip, total := 0, 0
	for u := int32(0); u < 500; u++ {
		tos, _ := g.OutNeighbors(u)
		for _, v := range tos {
			total++
			back, _ := g.OutNeighbors(v)
			for _, w := range back {
				if w == u {
					recip++
					break
				}
			}
		}
	}
	if total > 0 && float64(recip)/float64(total) < 0.7 {
		t.Fatalf("dblp reciprocity %d/%d too low", recip, total)
	}
}

func TestTweetSimSparseTopics(t *testing.T) {
	d, err := TweetSim(0.001, 9) // 10K nodes, 12K edges
	if err != nil {
		t.Fatal(err)
	}
	s := d.Summarize()
	if s.Vertices != 10000 || s.Edges != 12000 {
		t.Fatalf("tweet scaled n/m = %d/%d", s.Vertices, s.Edges)
	}
	if s.Topics != 50 {
		t.Fatalf("tweet topics = %d", s.Topics)
	}
	// Average degree ≈ 1.2 as in the paper.
	if math.Abs(s.AvgDegree-1.2) > 0.01 {
		t.Fatalf("tweet avg degree = %v, want 1.2", s.AvgDegree)
	}
	// Sparse per-edge topics: the paper reports ~1.5 non-zeros on tweet.
	if s.TopicNNZ < 1 || s.TopicNNZ > 2.2 {
		t.Fatalf("tweet per-edge topic NNZ = %v, want in [1, 2.2]", s.TopicNNZ)
	}
}

func TestBuildPresetDispatch(t *testing.T) {
	for _, p := range Presets {
		d, err := Build(p, 0.01, 1)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if d.Name != string(p) {
			t.Fatalf("dataset name %q for preset %q", d.Name, p)
		}
	}
	if _, err := Build("nope", 1, 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestDatasetsAreDeterministic(t *testing.T) {
	a, err := LastfmSim(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LastfmSim(0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.G.M() != b.G.M() || a.G.N() != b.G.N() {
		t.Fatal("same seed produced different graphs")
	}
	// Spot-check edge probabilities.
	for eid := int32(0); int(eid) < a.G.M(); eid += 97 {
		if !a.G.EdgeProb(eid).Equal(b.G.EdgeProb(eid)) {
			t.Fatalf("edge %d differs between same-seed datasets", eid)
		}
	}
	c, err := LastfmSim(0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for eid := int32(0); int(eid) < min(a.G.M(), c.G.M()); eid += 11 {
		if !a.G.EdgeProb(eid).Equal(c.G.EdgeProb(eid)) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical edge probabilities")
	}
}

func TestPromoterPool(t *testing.T) {
	d, err := LastfmSim(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := PromoterPool(d.G, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := int(0.1 * float64(d.G.N()))
	if len(pool) != want {
		t.Fatalf("pool size %d, want %d", len(pool), want)
	}
	seen := map[int32]bool{}
	for _, v := range pool {
		if v < 0 || int(v) >= d.G.N() {
			t.Fatalf("pool member %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate pool member %d", v)
		}
		seen[v] = true
	}
	if _, err := PromoterPool(d.G, 0, 1); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := PromoterPool(d.G, 1.5, 1); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestGenerateActionLog(t *testing.T) {
	d, err := LastfmSim(0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ActionLogConfig{Items: 20, SeedsPerItem: 5, TopicsPerItem: 2}
	log, err := GenerateActionLog(d, cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Items) != 20 {
		t.Fatalf("items = %d", len(log.Items))
	}
	// Every item has at least its seeds in the log.
	perItem := map[int32]int{}
	for _, a := range log.Actions {
		perItem[a.Item]++
		if a.User < 0 || int(a.User) >= d.G.N() {
			t.Fatalf("action user %d out of range", a.User)
		}
		if a.Time < 0 {
			t.Fatal("negative action time")
		}
	}
	for item := int32(0); item < 20; item++ {
		if perItem[item] < cfg.SeedsPerItem {
			t.Fatalf("item %d has %d actions, want >= %d", item, perItem[item], cfg.SeedsPerItem)
		}
	}
	// Sorted by (item, time, user).
	for i := 1; i < len(log.Actions); i++ {
		a, b := log.Actions[i-1], log.Actions[i]
		if a.Item > b.Item || (a.Item == b.Item && a.Time > b.Time) {
			t.Fatal("actions not sorted")
		}
	}
	// Each user acts on an item at most once.
	type key struct{ u, i int32 }
	dup := map[key]bool{}
	for _, a := range log.Actions {
		k := key{a.User, a.Item}
		if dup[k] {
			t.Fatalf("user %d acted twice on item %d", a.User, a.Item)
		}
		dup[k] = true
	}
}

func TestGenerateActionLogValidates(t *testing.T) {
	d, err := LastfmSim(0.1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateActionLog(d, ActionLogConfig{}, 1); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestGenerateCorpus(t *testing.T) {
	cfg := CorpusConfig{
		Docs: 200, Topics: 5, WordsPerTopic: 40,
		DocLength: 60, TopicsPerDoc: 2, NoiseWords: 0.05,
	}
	c, err := GenerateCorpus(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != 200 || c.V != 200 || c.Topics != 5 {
		t.Fatalf("corpus shape: docs=%d V=%d topics=%d", len(c.Docs), c.V, c.Topics)
	}
	for d, doc := range c.Docs {
		if len(doc) != 60 {
			t.Fatalf("doc %d length %d", d, len(doc))
		}
		for _, w := range doc {
			if w < 0 || int(w) >= c.V {
				t.Fatalf("word %d out of vocabulary", w)
			}
		}
	}
	// Documents should be concentrated in the vocabulary blocks of their
	// planted topics: at least 80% of words inside the planted blocks.
	hits, total := 0, 0
	for d, doc := range c.Docs {
		blocks := map[int32]bool{}
		for _, zi := range c.Mixtures[d].Idx {
			blocks[zi] = true
		}
		for _, w := range doc {
			total++
			if blocks[w/int32(cfg.WordsPerTopic)] {
				hits++
			}
		}
	}
	if frac := float64(hits) / float64(total); frac < 0.8 {
		t.Fatalf("only %v of words fall in planted topic blocks", frac)
	}
}

func TestGenerateCorpusValidates(t *testing.T) {
	if _, err := GenerateCorpus(CorpusConfig{}, 1); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := CorpusConfig{Docs: 1, Topics: 1, WordsPerTopic: 1, DocLength: 1, TopicsPerDoc: 1, NoiseWords: 1}
	if _, err := GenerateCorpus(bad, 1); err == nil {
		t.Fatal("noise=1 accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
