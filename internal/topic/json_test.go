package topic

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"oipa/internal/xrand"
)

func TestVectorJSONRoundTrip(t *testing.T) {
	v := FromDense([]float64{0, 0.25, 0, 0.75})
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var back Vector
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(back) {
		t.Fatalf("round trip changed vector: %+v -> %+v", v, back)
	}
}

func TestVectorJSONRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"x": 0.5}`,  // non-numeric index
		`{"-1": 0.5}`, // negative index
		`{"0": -0.5}`, // negative weight
		`[0.1, 0.2]`,  // wrong shape
	}
	for _, c := range cases {
		var v Vector
		if err := json.Unmarshal([]byte(c), &v); err == nil {
			t.Fatalf("input %q accepted", c)
		}
	}
}

func TestCampaignJSONRoundTrip(t *testing.T) {
	c := Campaign{Name: "election", Pieces: []Piece{
		{Name: "taxation", Dist: FromDense([]float64{0, 0, 0.8, 0.2})},
		{Name: "healthcare", Dist: SingleTopic(5)},
	}}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Campaign
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "election" || len(back.Pieces) != 2 {
		t.Fatalf("round trip shape: %+v", back)
	}
	for i := range c.Pieces {
		if back.Pieces[i].Name != c.Pieces[i].Name {
			t.Fatalf("piece %d name %q", i, back.Pieces[i].Name)
		}
		if !back.Pieces[i].Dist.Equal(c.Pieces[i].Dist) {
			t.Fatalf("piece %d distribution changed", i)
		}
	}
}

func TestCampaignJSONNormalizes(t *testing.T) {
	// Authors may write unnormalized weights; loading normalizes.
	src := `{"name":"c","pieces":[{"name":"p","topics":{"0": 3, "2": 1}}]}`
	var c Campaign
	if err := json.Unmarshal([]byte(src), &c); err != nil {
		t.Fatal(err)
	}
	d := c.Pieces[0].Dist
	if math.Abs(d.Sum()-1) > 1e-12 {
		t.Fatalf("distribution sums to %v", d.Sum())
	}
	if math.Abs(d.At(0)-0.75) > 1e-12 || math.Abs(d.At(2)-0.25) > 1e-12 {
		t.Fatalf("normalization wrong: %+v", d)
	}
}

func TestCampaignJSONRejectsEmptyPiece(t *testing.T) {
	src := `{"name":"c","pieces":[{"name":"p","topics":{}}]}`
	var c Campaign
	if err := json.Unmarshal([]byte(src), &c); err == nil {
		t.Fatal("empty distribution accepted")
	}
}

func TestLoadSaveCampaignFile(t *testing.T) {
	save := func(path string, c Campaign) {
		t.Helper()
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	path := t.TempDir() + "/campaign.json"
	save(path, Campaign{Name: "file", Pieces: []Piece{{Name: "p0", Dist: SingleTopic(2)}}})
	back, err := LoadCampaign(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "file" || back.Pieces[0].Dist.At(2) != 1 {
		t.Fatalf("loaded campaign wrong: %+v", back)
	}
	if _, err := LoadCampaign(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
	// Empty campaign file rejected.
	bad := t.TempDir() + "/bad.json"
	save(bad, Campaign{Name: "empty"})
	if _, err := LoadCampaign(bad); err == nil {
		t.Fatal("empty campaign accepted")
	}
	// Garbage file rejected.
	garbage := t.TempDir() + "/garbage.json"
	if err := os.WriteFile(garbage, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCampaign(garbage); err == nil {
		t.Fatal("garbage file accepted")
	}
}

func TestCampaignJSONOutputReadable(t *testing.T) {
	c := Campaign{Name: "readable", Pieces: []Piece{{Name: "p", Dist: SingleTopic(0)}}}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"pieces"`) || !strings.Contains(string(data), `"topics"`) {
		t.Fatalf("unexpected serialization: %s", data)
	}
}

// Bodies the strict decoder refuses, most of which the lenient decoder
// it replaced accepted: unknown fields at two levels, non-canonical topic
// keys, one topic given twice (in two spellings, which decoded to one of
// two distributions depending on map order), a mis-cased field, and
// mistyped or out-of-range values.
var lenientBodies = []string{
	`{"pieces":[{"name":"p","topics":{"1":1},"typo":5}],"bogus":1}`,
	`{"pieces":[{"name":"p","topics":{"1":1}}],"bogus":1}`,
	`{"pieces":[{"name":"p","topics":{"3abc":1}}]}`,
	`{"pieces":[{"name":"p","topics":{"+3":1}}]}`,
	`{"pieces":[{"name":"p","topics":{"03":1}}]}`,
	`{"pieces":[{"name":"p","topics":{" 3":1}}]}`,
	`{"pieces":[{"name":"p","topics":{"3": 0.25, "03": 0.75, "1": 1}}]}`,
	`{"pieces":[{"name":"p","topics":{"3": 0.25, "3": 0.75}}]}`,
	`{"pieces":[{"name":"p","topics":{"2147483648": 1}}]}`,
	`{"pieces":[{"name":"p","topics":{"-0": 1}}]}`,
	`{"pieces":[{"name":"p","topics":{"1": null}}]}`,
	`{"pieces":[{"name":"p","topics":{"1": "1"}}]}`,
	`{"Pieces":[{"name":"p","topics":{"1":1}}]}`,
	`{"pieces":null}`,
}

func TestCampaignJSONRejectsLenientInput(t *testing.T) {
	for _, body := range lenientBodies {
		var c Campaign
		if err := json.Unmarshal([]byte(body), &c); err == nil {
			t.Errorf("%s accepted as %+v", body, c)
		}
	}
}

// TestCampaignJSONLargeTopicIsSparse: a topic index is an entry of a
// sparse vector, never an array length, so a large one costs what a
// small one does. (Campaign.Validate rejects it against the graph's
// topic space.)
func TestCampaignJSONLargeTopicIsSparse(t *testing.T) {
	for _, idx := range []string{"20000000", "2000000000", "2147483647"} {
		body := []byte(`{"pieces":[{"name":"p","topics":{"` + idx + `": 1}}]}`)
		var c Campaign
		if err := json.Unmarshal(body, &c); err != nil {
			t.Fatal(err)
		}
		if d := c.Pieces[0].Dist; d.NNZ() != 1 || strconv.Itoa(int(d.Idx[0])) != idx || d.Val[0] != 1 {
			t.Fatalf("topic %s decoded to %+v", idx, d)
		}
		if err := c.Validate(9); err == nil {
			t.Fatalf("topic %s passed validation over 9 topics", idx)
		}
		if grew := allocatedBy(func() { _ = json.Unmarshal(body, new(Campaign)) }); grew > 64<<10 {
			t.Fatalf("topic %s: decoding allocated %d bytes", idx, grew)
		}
	}
}

// TestCampaignJSONMatchesLegacyDecoder: every canonical body decodes to
// the distribution the lenient decoder produced, bit for bit — entries,
// order and Normalize — over random campaigns with unsorted keys, zero
// weights and unnormalized weights.
func TestCampaignJSONMatchesLegacyDecoder(t *testing.T) {
	r := xrand.New(5)
	for trial := 0; trial < 300; trial++ {
		var sb strings.Builder
		sb.WriteString(`{"name":"c","pieces":[`)
		for j := 0; j < 1+r.Intn(4); j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"name":"p%d","topics":{`, j)
			for k, z := range r.Sample(40, 1+r.Intn(6)) {
				if k > 0 {
					sb.WriteByte(',')
				}
				w := r.Float64() * []float64{1, 10, 1e-3}[r.Intn(3)]
				if r.Intn(8) == 0 {
					w = 0
				}
				fmt.Fprintf(&sb, `"%d":%v`, z, w)
			}
			sb.WriteString(`}}`)
		}
		sb.WriteString(`]}`)
		body := []byte(sb.String())
		want, wantErr := legacyCampaign(body)
		var got Campaign
		gotErr := json.Unmarshal(body, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: legacy error %v, strict error %v", body, wantErr, gotErr)
		}
		if gotErr == nil {
			requireSameCampaign(t, body, got, want)
		}
	}
}

func FuzzCampaignJSON(f *testing.F) {
	for _, body := range append(lenientBodies,
		`{"name":"election","pieces":[{"name":"taxation","topics":{"3":0.8,"4":0.2}},{"name":"healthcare","topics":{"11":1}}]}`,
		`{"name":"c","pieces":[{"name":"p","topics":{"2":1,"0":3,"1":0}}]}`,
		`{"pieces":[{"topics":{"0":0.1,"1":0.2,"2":0.7}}]}`,
		`{"pieces":[{"topics":{"3":1}}]}`,
		`{"pieces":[{"topics":{"0":0.72}}]}`,
		`{"pieces":[{"topics":{"1":1e400}}]}`,
		`{"pieces":[{"topics":{"1":[1]}}]}`,
		`{"pieces":[{"topics":{}}]}`,
		`{"pieces":[]}`, `{}`, `null`, `[]`, `"x"`, `{"pieces":[{"topics":{"20000000":1}}]}`,
		"{\"pieces\":[{\"name\":\"\x81\",\"topics\":{\"0\":1}}]}", // invalid UTF-8 in a name
	) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// Called directly the decoder sees bytes encoding/json never
		// checked; it must refuse them, not panic.
		_ = new(Campaign).UnmarshalJSON(body)
		_ = new(Vector).UnmarshalJSON(body)
		var c Campaign
		var err error
		grew := allocatedBy(func() { err = json.Unmarshal(body, &c) })
		if limit := uint64(64<<10 + 256*len(body)); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(body), grew, limit)
		}
		if err != nil {
			return
		}
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var again Campaign
		if err := json.Unmarshal(data, &again); err != nil {
			t.Fatalf("re-decoding %s: %v", data, err)
		}
		// decode ∘ marshal ∘ decode = decode up to one more Normalize, which
		// is not idempotent in floating point: {"0": 0.72} normalizes to
		// 0.9999999999999999, and that to 1. A topic vector alone
		// round-trips exactly.
		renorm := Campaign{Name: c.Name}
		for _, p := range c.Pieces {
			renorm.Pieces = append(renorm.Pieces, Piece{Name: p.Name, Dist: p.Dist.Normalize()})
			vdata, err := json.Marshal(p.Dist)
			if err != nil {
				t.Fatal(err)
			}
			var v Vector
			if err := json.Unmarshal(vdata, &v); err != nil {
				t.Fatalf("re-decoding %s: %v", vdata, err)
			}
			requireSameCampaign(t, vdata, Campaign{Pieces: []Piece{{Dist: v}}}, Campaign{Pieces: []Piece{{Dist: p.Dist}}})
		}
		requireSameCampaign(t, data, again, renorm)
		// The strict decoder accepts a subset of what the lenient one did,
		// and decodes it identically (bounded: the lenient one allocates a
		// dense array up to the largest topic).
		for _, p := range c.Pieces {
			if p.Dist.NNZ() > 0 && p.Dist.Idx[p.Dist.NNZ()-1] >= 1<<12 {
				return
			}
		}
		legacy, err := legacyCampaign(body)
		if err != nil {
			t.Fatalf("strict decoder accepted what the lenient one refused (%v)", err)
		}
		requireSameCampaign(t, body, c, legacy)
	})
}

// allocatedBy reports the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// requireSameCampaign fails unless got and want have the same name and
// pieces, with bit-identical distributions.
func requireSameCampaign(t *testing.T, body []byte, got, want Campaign) {
	t.Helper()
	if got.Name != want.Name || len(got.Pieces) != len(want.Pieces) {
		t.Fatalf("%s: decoded %+v, want %+v", body, got, want)
	}
	for i := range got.Pieces {
		g, w := got.Pieces[i], want.Pieces[i]
		same := g.Name == w.Name && len(g.Dist.Idx) == len(w.Dist.Idx) && len(g.Dist.Val) == len(w.Dist.Val)
		for k := 0; same && k < len(g.Dist.Idx); k++ {
			same = g.Dist.Idx[k] == w.Dist.Idx[k] && math.Float64bits(g.Dist.Val[k]) == math.Float64bits(w.Dist.Val[k])
		}
		if !same {
			t.Fatalf("%s: piece %d decoded %+v, want %+v", body, i, g, w)
		}
	}
}

// legacyCampaign is the lenient decoder this package used to have —
// encoding/json into a map, keys through fmt.Sscanf, a dense array up to
// the largest topic, FromDense, Normalize — kept as the reference for
// canonical bodies.
func legacyCampaign(data []byte) (Campaign, error) {
	var in struct {
		Name   string
		Pieces []struct {
			Name   string
			Topics map[string]float64
		}
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return Campaign{}, err
	}
	c := Campaign{Name: in.Name}
	for _, p := range in.Pieces {
		dense := map[int32]float64{}
		maxIdx := int32(-1)
		for k, val := range p.Topics {
			var idx int32
			if _, err := fmt.Sscanf(k, "%d", &idx); err != nil || idx < 0 || val < 0 {
				return Campaign{}, fmt.Errorf("bad topic %q: %v", k, val)
			}
			dense[idx] = val
			maxIdx = max(maxIdx, idx)
		}
		full := make([]float64, maxIdx+1)
		for idx, val := range dense {
			full[idx] = val
		}
		v := FromDense(full)
		if v.Sum() == 0 {
			return Campaign{}, fmt.Errorf("piece %q has an empty distribution", p.Name)
		}
		c.Pieces = append(c.Pieces, Piece{Name: p.Name, Dist: v.Normalize()})
	}
	return c, nil
}
