package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"oipa/internal/obs"
)

// span is one timed region recorded by the harness. Spans of one request
// share RequestID and link to the span that caused them through Parent
// (0 for a root). Times are microseconds since the tracer's epoch.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	RequestID string `json:"request_id"`
	Name      string `json:"name"`
	StartUS   int64  `json:"start_us"`
	DurUS     int64  `json:"dur_us"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(parent int, requestID, name string, startUS, durUS int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, RequestID: requestID, Name: name, StartUS: startUS, DurUS: durUS})
	return id
}

// record times one call into a layer as a root span of its own.
func (t *tracer) record(requestID, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.add(0, requestID, name, start.Sub(t.epoch).Microseconds(), d.Microseconds())
	return d
}

// adoptRequest records the harness span client.request around one call
// and hangs the span tree the server returned under it, all under the
// server's request id. The server reports offsets from its own start, so
// its root is centred in the client span: what the client waited before
// and after the handler ran is the HTTP share, whichever side it fell.
func (t *tracer) adoptRequest(s *sample, tree *obs.SpanTree) {
	startUS := s.Start.Sub(t.epoch).Microseconds()
	wallUS := s.Latency.Microseconds()
	reqID := ""
	if tree != nil {
		reqID = tree.TraceID
	}
	root := t.add(0, reqID, "client.request", startUS, wallUS)
	if tree == nil {
		return
	}
	offset := startUS
	if gap := wallUS - tree.DurUS; gap > 0 {
		offset += gap / 2
	}
	t.adoptTree(root, reqID, tree, offset-tree.StartUS)
}

func (t *tracer) adoptTree(parent int, reqID string, n *obs.SpanTree, shiftUS int64) {
	id := t.add(parent, reqID, n.Name, n.StartUS+shiftUS, n.DurUS)
	for _, c := range n.Spans {
		t.adoptTree(id, reqID, c, shiftUS)
	}
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its own interval its children cover (children clipped to the parent,
// overlapping children counted once). When every child lies inside its
// parent and siblings do not overlap, the self times of a tree sum to
// its root's duration exactly; a child reaching outside its parent, or
// siblings running at once, make the sum exceed it — which is what
// span_coverage watches.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, edge, end := int64(0), s.StartUS, s.StartUS+s.DurUS
		for _, k := range kids {
			a, b := max(k.StartUS, edge), min(k.StartUS+k.DurUS, end)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[s.ID] = s.DurUS - covered
	}
	return self
}

// Self-time groups of the serve span tree.
const (
	groupHTTP     = "http"
	groupHandler  = "handler"
	groupAdmit    = "admit"
	groupRegistry = "registry"
	groupSolve    = "solve"
	groupEstimate = "estimate"
)

// spanGroups attributes every span of the request trees to a layer
// group: a span inherits its parent's group unless its own name opens
// one (so registry's prepare/grow children count as registry, a
// parallel solve's workers as solve).
func spanGroups(spans []span) map[int]string {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	groups := make(map[int]string, len(spans))
	var groupOf func(s span) string
	groupOf = func(s span) string {
		if g, ok := groups[s.ID]; ok {
			return g
		}
		var g string
		switch {
		case s.Name == "client.request":
			g = groupHTTP
		case s.Name == "admit":
			g = groupAdmit
		case s.Name == "registry":
			g = groupRegistry
		case strings.HasPrefix(s.Name, "solve."):
			g = groupSolve
		case strings.HasPrefix(s.Name, "estimate."):
			g = groupEstimate
		case s.Parent != 0 && byID[s.Parent].Name == "client.request":
			g = groupHandler // the server's root span
		case s.Parent != 0:
			g = groupOf(byID[s.Parent])
		default:
			g = s.Name
		}
		groups[s.ID] = g
		return g
	}
	for _, s := range spans {
		groupOf(s)
	}
	return groups
}

// spanSummary is the per-request mean self time of every group, plus
// coverage: the summed self times over the summed client wall.
type spanSummary struct {
	Requests int
	SelfUS   map[string]float64 // mean per request
	Coverage float64
}

func summarizeSpans(spans []span) spanSummary {
	self := selfTimes(spans)
	groups := spanGroups(spans)
	sum := spanSummary{SelfUS: map[string]float64{}}
	var totalSelf, totalWall int64
	for _, s := range spans {
		sum.SelfUS[groups[s.ID]] += float64(self[s.ID])
		totalSelf += self[s.ID]
		if s.Name == "client.request" {
			sum.Requests++
			totalWall += s.DurUS
		}
	}
	if sum.Requests > 0 {
		for g := range sum.SelfUS {
			sum.SelfUS[g] /= float64(sum.Requests)
		}
	}
	if totalWall > 0 {
		sum.Coverage = float64(totalSelf) / float64(totalWall)
	}
	return sum
}
