package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "req-1", "solve")
	actx, admit := StartSpan(ctx, "admit")
	admit.End()
	if !Traced(actx) {
		t.Fatal("traced context not reported as traced")
	}
	rctx, reg := StartSpan(ctx, "registry")
	_, prep := StartSpan(rctx, "prepare")
	time.Sleep(time.Millisecond)
	prep.End()
	reg.End()
	_, slv := StartSpan(ctx, "solve.bab")
	slv.End()
	tree := tr.Finish()

	if tree.TraceID != "req-1" {
		t.Fatalf("trace id = %q, want req-1", tree.TraceID)
	}
	if tree.Name != "solve" || len(tree.Spans) != 3 {
		t.Fatalf("root = %q with %d children, want solve with 3", tree.Name, len(tree.Spans))
	}
	reg2 := tree.Find("registry")
	if reg2 == nil || len(reg2.Spans) != 1 || reg2.Spans[0].Name != "prepare" {
		t.Fatalf("registry span missing its prepare child: %+v", reg2)
	}
	// Durations nest: the prepare child is contained in registry, which
	// is contained in the root.
	if reg2.Spans[0].DurUS > reg2.DurUS || reg2.DurUS > tree.DurUS {
		t.Fatalf("child durations exceed parents: prepare=%d registry=%d root=%d",
			reg2.Spans[0].DurUS, reg2.DurUS, tree.DurUS)
	}
	if reg2.Spans[0].StartUS < reg2.StartUS {
		t.Fatalf("child starts before parent: %d < %d", reg2.Spans[0].StartUS, reg2.StartUS)
	}
	// JSON shape: the tree must marshal with nested spans.
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"spans"`) || !strings.Contains(string(data), `"trace_id"`) {
		t.Fatalf("marshaled tree missing fields: %s", data)
	}
}

// A trace handed across goroutines keeps its root trace ID and collects
// spans opened on the far side.
func TestTraceCrossGoroutine(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "req-async", "job")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, sp := StartSpan(ctx, "worker")
		sp.End()
	}()
	<-done
	tree := tr.Finish()
	if tree.TraceID != "req-async" {
		t.Fatalf("trace id = %q", tree.TraceID)
	}
	if tree.Find("worker") == nil {
		t.Fatal("span opened on the worker goroutine missing from the tree")
	}
}

func TestDisabledTracingFastPath(t *testing.T) {
	ctx := context.Background()
	nctx, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("untraced StartSpan returned a span")
	}
	if nctx != ctx {
		t.Fatal("untraced StartSpan returned a new context")
	}
	sp.End() // must not panic on nil
	if Traced(ctx) {
		t.Fatal("bare context reported as traced")
	}
	// The zero-allocation pin: instrumentation points call StartSpan
	// unconditionally on every request, so the disabled path must not
	// allocate at all.
	if n := testing.AllocsPerRun(1000, func() {
		_, s := StartSpan(ctx, "hot")
		s.End()
	}); n != 0 {
		t.Fatalf("disabled StartSpan allocates %v times per op, want 0", n)
	}
	// Same through a value-carrying (but untraced) context chain, the
	// realistic request shape.
	deep := context.WithValue(context.WithValue(ctx, dummyKey{}, 1), dummyKey2{}, 2)
	if n := testing.AllocsPerRun(1000, func() {
		_, s := StartSpan(deep, "hot")
		s.End()
	}); n != 0 {
		t.Fatalf("disabled StartSpan through value chain allocates %v times per op, want 0", n)
	}
}

type dummyKey struct{}
type dummyKey2 struct{}

func TestEndIdempotent(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "r", "root")
	_, sp := StartSpan(ctx, "child")
	sp.End()
	d1 := tr.Tree().Spans[0].DurUS
	time.Sleep(2 * time.Millisecond)
	sp.End()
	d2 := tr.Tree().Spans[0].DurUS
	if d1 != d2 {
		t.Fatalf("second End changed duration: %d -> %d", d1, d2)
	}
}

// An unfinished span still renders (with its duration so far) — a trace
// snapshot mid-request must not block or lose spans.
func TestTreeWithOpenSpans(t *testing.T) {
	ctx, tr := NewTrace(context.Background(), "r", "root")
	_, _ = StartSpan(ctx, "open")
	time.Sleep(time.Millisecond)
	tree := tr.Tree()
	if got := tree.Find("open"); got == nil || got.DurUS <= 0 {
		t.Fatalf("open span rendered as %+v", tree.Find("open"))
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || a == "" {
		t.Fatalf("request ids not unique: %q %q", a, b)
	}
}

// The benchmark pin for the disabled fast path (also runs in CI's
// bench smoke): ~0 ns, 0 allocs.
func BenchmarkStartSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "hot")
		sp.End()
	}
}

func BenchmarkStartSpanEnabled(b *testing.B) {
	ctx, _ := NewTrace(context.Background(), "r", "root")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "hot")
		sp.End()
	}
}
