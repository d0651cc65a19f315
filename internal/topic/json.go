package topic

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// JSON forms. A Vector is an object from topic index to weight, which is
// the natural way to author distributions by hand; a campaign is
//
//	{
//	  "name": "election",
//	  "pieces": [
//	    {"name": "taxation", "topics": {"3": 0.8, "4": 0.2}},
//	    {"name": "healthcare", "topics": {"11": 1.0}}
//	  ]
//	}
//
// Distributions are normalized on load, so authors may use any
// non-negative weights.
//
// Decoding is strict, because request bodies cross a trust boundary: one
// pass over the bytes, no field outside the ones above at any level,
// topic keys in canonical decimal ("3"; not "03", "+3", " 3" or "3abc"),
// each topic at most once, and memory proportional to the body — a
// large topic index is a number in a sparse vector, never the length of
// an array.

// MarshalJSON implements json.Marshaler for Vector.
func (v Vector) MarshalJSON() ([]byte, error) {
	m := make(map[string]float64, v.NNZ())
	for i, idx := range v.Idx {
		m[strconv.Itoa(int(idx))] = v.Val[i]
	}
	return json.Marshal(m)
}

// MarshalJSON implements json.Marshaler for Campaign.
func (c Campaign) MarshalJSON() ([]byte, error) {
	type pieceJSON struct {
		Name   string `json:"name"`
		Topics Vector `json:"topics"`
	}
	out := struct {
		Name   string      `json:"name"`
		Pieces []pieceJSON `json:"pieces"`
	}{Name: c.Name, Pieces: make([]pieceJSON, len(c.Pieces))}
	for i, p := range c.Pieces {
		out.Pieces[i] = pieceJSON{Name: p.Name, Topics: p.Dist}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for Vector: entries are
// sorted by topic, and zero weights are dropped.
func (v *Vector) UnmarshalJSON(data []byte) error {
	p := &parser{b: data}
	out, err := p.vector()
	if err == nil {
		err = p.end()
	}
	if err != nil {
		return err
	}
	*v = out
	return nil
}

// UnmarshalJSON implements json.Unmarshaler for Campaign; distributions
// are normalized to sum to 1.
func (c *Campaign) UnmarshalJSON(data []byte) error {
	p := &parser{b: data}
	var out Campaign
	err := p.object("campaign", func(key []byte) error {
		switch string(key) {
		case "name":
			var err error
			out.Name, err = p.str("campaign name")
			return err
		case "pieces":
			out.Pieces = nil // a repeated field's last value wins, as in encoding/json
			return p.list('[', ']', "pieces", func() error {
				piece, err := p.piece()
				out.Pieces = append(out.Pieces, piece)
				return err
			})
		}
		return fmt.Errorf("topic: unknown campaign field %q", string(key))
	})
	if err == nil {
		err = p.end()
	}
	if err != nil {
		return err
	}
	*c = out
	return nil
}

// parser reads the campaign and vector forms in one pass over the bytes.
// encoding/json hands an Unmarshaler a value it has already checked, so
// the parser only recognizes the shapes it accepts; on anything else it
// stops with an error, never reading past the input.
type parser struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (p *parser) peek() byte {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
	if p.i >= len(p.b) {
		return 0
	}
	return p.b[p.i]
}

func (p *parser) expect(c byte, what string) error {
	if p.peek() != c {
		return fmt.Errorf("topic: %s: expected %q at byte %d", what, c, p.i)
	}
	p.i++
	return nil
}

func (p *parser) end() error {
	if p.peek() != 0 {
		return fmt.Errorf("topic: trailing data at byte %d", p.i)
	}
	return nil
}

// list reads a JSON array (open '[') or object ('{'), calling elem to
// read each element.
func (p *parser) list(open, close byte, what string, elem func() error) error {
	if err := p.expect(open, what); err != nil {
		return err
	}
	if p.peek() == close {
		p.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if p.peek() == close {
			p.i++
			return nil
		}
		if err := p.expect(',', what); err != nil {
			return err
		}
	}
}

// object reads a JSON object, handing each key to field, which must read
// the key's value. The key aliases the input unless it had escapes.
func (p *parser) object(what string, field func(key []byte) error) error {
	return p.list('{', '}', what, func() error {
		key, err := p.strBytes("key")
		if err == nil {
			err = p.expect(':', what)
		}
		if err == nil {
			err = field(key)
		}
		return err
	})
}

// str reads a JSON string.
func (p *parser) str(what string) (string, error) {
	b, err := p.strBytes(what)
	return string(b), err
}

// strBytes reads a JSON string: its bytes in the input, or, if it has
// escapes or is not valid UTF-8, unquoted by encoding/json (which, like
// its decoder, replaces invalid bytes with U+FFFD).
func (p *parser) strBytes(what string) ([]byte, error) {
	if p.peek() != '"' {
		return nil, fmt.Errorf("topic: %s is not a string (byte %d)", what, p.i)
	}
	start, escaped := p.i, false
	for p.i++; p.i < len(p.b) && p.b[p.i] != '"'; p.i++ {
		if p.b[p.i] == '\\' {
			escaped = true
			p.i++
		}
	}
	if p.i >= len(p.b) {
		return nil, fmt.Errorf("topic: %s: unterminated string", what)
	}
	p.i++
	if escaped || !utf8.Valid(p.b[start+1:p.i-1]) {
		var s string
		err := json.Unmarshal(p.b[start:p.i], &s)
		return []byte(s), err
	}
	return p.b[start+1 : p.i-1], nil
}

// number reads a JSON number literal.
func (p *parser) number() (float64, bool) {
	p.peek()
	start := p.i
	for p.i < len(p.b) && strings.IndexByte("+-.0123456789eE", p.b[p.i]) >= 0 {
		p.i++
	}
	v, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return v, start < p.i && err == nil
}

// piece reads one piece object and normalizes its distribution.
func (p *parser) piece() (Piece, error) {
	var pc Piece
	err := p.object("piece", func(key []byte) error {
		switch string(key) {
		case "name":
			var err error
			pc.Name, err = p.str("piece name")
			return err
		case "topics":
			var err error
			pc.Dist, err = p.vector()
			return err
		}
		return fmt.Errorf("topic: unknown piece field %q", string(key))
	})
	if err != nil {
		return pc, err
	}
	if pc.Dist.Sum() == 0 {
		return pc, fmt.Errorf("topic: piece %q has an empty distribution", pc.Name)
	}
	pc.Dist = pc.Dist.Normalize()
	return pc, nil
}

// topicIndex parses a topic key in canonical decimal: digits only, no
// leading zero, within int32.
func topicIndex(key []byte) (int32, bool) {
	if len(key) == 0 || len(key) > 1 && key[0] == '0' {
		return 0, false
	}
	for _, c := range key {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	idx, err := strconv.ParseInt(string(key), 10, 32)
	return int32(idx), err == nil
}

// vector reads one topic-to-weight object.
func (p *parser) vector() (Vector, error) {
	type entry struct {
		idx int32
		val float64
	}
	var es []entry
	err := p.object("topic vector", func(key []byte) error {
		idx, ok := topicIndex(key)
		if !ok {
			return fmt.Errorf("topic: invalid topic index %q", string(key))
		}
		val, ok := p.number()
		if !ok {
			return fmt.Errorf("topic: weight of topic %d is not a number (byte %d)", idx, p.i)
		}
		if val < 0 {
			return fmt.Errorf("topic: negative weight %v for topic %d", val, idx)
		}
		es = append(es, entry{idx, val})
		return nil
	})
	if err != nil {
		return Vector{}, err
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.idx, b.idx) })
	var v Vector
	for i, e := range es {
		if i > 0 && e.idx == es[i-1].idx {
			return Vector{}, fmt.Errorf("topic: topic %d given twice", e.idx)
		}
		if e.val != 0 {
			v.Idx = append(v.Idx, e.idx)
			v.Val = append(v.Val, e.val)
		}
	}
	return v, nil
}

// LoadCampaign reads a campaign spec from a JSON file.
func LoadCampaign(path string) (Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Campaign{}, err
	}
	var c Campaign
	if err := json.Unmarshal(data, &c); err != nil {
		return Campaign{}, fmt.Errorf("topic: parsing %s: %w", path, err)
	}
	if len(c.Pieces) == 0 {
		return Campaign{}, fmt.Errorf("topic: campaign %s has no pieces", path)
	}
	return c, nil
}
