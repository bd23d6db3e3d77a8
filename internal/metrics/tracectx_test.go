package metrics

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestStartSpanMintsRoot(t *testing.T) {
	r := NewRegistry()
	ctx, end := r.StartSpan(context.Background(), "root.op")
	sc, ok := SpanFromContext(ctx)
	if !ok || !sc.Valid() {
		t.Fatal("StartSpan put no valid span in the context")
	}
	end(nil)
	spans := r.Tracer().Trace(sc.TraceID)
	if len(spans) != 1 || spans[0].Name != "root.op" || spans[0].ParentID != 0 {
		t.Fatalf("trace = %+v", spans)
	}
	if spans[0].SpanID != sc.SpanID {
		t.Fatalf("recorded span id %016x != context span id %016x", spans[0].SpanID, sc.SpanID)
	}
}

func TestStartSpanNestsUnderParent(t *testing.T) {
	r := NewRegistry()
	ctx, endRoot := r.StartSpan(context.Background(), "outer")
	root, _ := SpanFromContext(ctx)
	child, endChild := r.StartSpan(ctx, "inner")
	csc, _ := SpanFromContext(child)
	if csc.TraceID != root.TraceID {
		t.Fatalf("child trace %016x != parent trace %016x", csc.TraceID, root.TraceID)
	}
	if csc.SpanID == root.SpanID {
		t.Fatal("child reused the parent span id")
	}
	endChild(errors.New("inner failed"))
	endRoot(nil)
	for _, rec := range r.Tracer().Trace(root.TraceID) {
		if rec.Name == "inner" {
			if rec.ParentID != root.SpanID {
				t.Fatalf("inner parent = %016x, want %016x", rec.ParentID, root.SpanID)
			}
			if rec.Err != "inner failed" {
				t.Fatalf("inner err = %q", rec.Err)
			}
		}
	}
}

// TestContinueSpanNoParentIsNoOp is the server-side contract: untraced
// traffic must not mint root traces.
func TestContinueSpanNoParentIsNoOp(t *testing.T) {
	r := NewRegistry()
	ctx, end := r.ContinueSpan(context.Background(), "server.req.get")
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatal("ContinueSpan minted a span without a parent")
	}
	end(nil)
	if got := r.Tracer().Count(); got != 0 {
		t.Fatalf("ContinueSpan recorded %d spans without a parent", got)
	}
}

func TestContinueSpanWithParent(t *testing.T) {
	r := NewRegistry()
	parent := SpanContext{TraceID: 42, SpanID: 7}
	ctx := ContextWithSpan(context.Background(), parent)
	cctx, end := r.ContinueSpanNote(ctx, "server.req.put", "ops=3")
	sc, ok := SpanFromContext(cctx)
	if !ok || sc.TraceID != 42 || sc.SpanID == 7 {
		t.Fatalf("continued span = %+v", sc)
	}
	end(nil)
	spans := r.Tracer().Trace(42)
	if len(spans) != 1 || spans[0].ParentID != 7 || spans[0].Note != "ops=3" {
		t.Fatalf("trace = %+v", spans)
	}
}

func TestNewSpanIDUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := NewSpanID()
		if id == 0 || seen[id] {
			t.Fatalf("NewSpanID returned %d (dup or zero) at iteration %d", id, i)
		}
		seen[id] = true
	}
}

func TestNilRegistrySpansInert(t *testing.T) {
	var r *Registry
	ctx, end := r.StartSpan(context.Background(), "x")
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatal("nil registry minted a span")
	}
	end(nil)
	ctx, end = r.ContinueSpan(context.Background(), "y")
	end(nil)
	_ = ctx
}

// TestWriteTraceTimeline renders one local tracer's trace through
// WriteTimeline and checks the parent/child indentation, that orphan
// spans (parent outside the ring) still print, and that spans naming no
// node get no node column.
func TestWriteTraceTimeline(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	now := time.Now()
	tr.RecordSpan(SpanRecord{Name: "publish", Start: now, Dur: 3 * time.Millisecond,
		TraceID: 9, SpanID: 1})
	tr.RecordSpan(SpanRecord{Name: "ship", Start: now.Add(time.Millisecond),
		Dur: time.Millisecond, TraceID: 9, SpanID: 2, ParentID: 1})
	tr.RecordSpan(SpanRecord{Name: "orphan", Start: now.Add(2 * time.Millisecond),
		Dur: time.Millisecond, TraceID: 9, SpanID: 3, ParentID: 999})
	var sb strings.Builder
	if _, err := (MergedTrace{TraceID: 9, Spans: tr.Trace(9)}).WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "[") || strings.Contains(out, "node(s)") {
		t.Fatalf("node column on a trace that names no node:\n%s", out)
	}
	for _, want := range []string{"publish", "ship", "orphan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// The child renders deeper than its parent.
	var publishIndent, shipIndent int
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		indent := len(line) - len(trimmed)
		if strings.Contains(line, "publish") {
			publishIndent = indent
		} else if strings.Contains(line, "ship") {
			shipIndent = indent
		}
	}
	if shipIndent <= publishIndent {
		t.Fatalf("child indent %d <= parent indent %d:\n%s", shipIndent, publishIndent, out)
	}
}
