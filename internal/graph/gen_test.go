package graph_test

import (
	"bytes"
	"runtime"
	"testing"

	"oipa/internal/gen"
	"oipa/internal/graph"
)

// TestBuildGolden pins every internal array of the generator's graphs at
// small scale: any change to how Builder orders edges, assigns edge ids or
// lays out the topic arrays moves a digest. The dblp ×0.035 graph has
// 210 000 edges, enough for Build to lay it out in three parallel parts
// under the GOMAXPROCS set here; the digests were computed by a
// sequential Build.
func TestBuildGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, tc := range []struct {
		preset gen.Preset
		scale  float64
		seed   uint64
		want   string
	}{
		{gen.PresetDBLP, 0.01, 7, "2afa5086b784d8a9c8f957e9d20b17e5469357c7ecc34618123a7d8db4b9c4a5"},
		{gen.PresetLastfm, 0.5, 3, "fdc53ade5a660936bb13e7fd1056c7090f1bc51919f054bec53f5cb779a4b214"},
		{gen.PresetTweet, 0.002, 9, "c26d62bfb44d76c6a47f7c4f516117e5fd023f01c24fc8bab77368c952b57ba2"},
		{gen.PresetDBLP, 0.035, 11, "15f7856081a99eac826e90609b0c2f6a41d9b0fd54bb116424337d7874d46b38"},
	} {
		d, err := gen.Build(tc.preset, tc.scale, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := graph.Digest(d.G); got != tc.want {
			t.Errorf("%s ×%v seed %d: digest %s, want %s", tc.preset, tc.scale, tc.seed, got, tc.want)
		}
	}
}

// BenchmarkRead decodes the benchmark ledger's graph (dblp ×0.05, seed
// 42: 25 000 nodes, 300 000 edges), serialized once, from memory.
func BenchmarkRead(b *testing.B) {
	d, err := gen.Build(gen.PresetDBLP, 0.05, 42)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.G.Write(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Read(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
