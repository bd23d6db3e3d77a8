package metrics

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// exportServer serves /debug/trace?id=&format=json for a canned span
// set, the way internal/ops does on a real node.
func exportServer(t *testing.T, node string, spans []SpanRecord) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/trace" || r.URL.Query().Get("format") != "json" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(TraceExport{Node: node, TraceID: r.URL.Query().Get("id"), Spans: spans})
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestTraceCollectorMerge(t *testing.T) {
	const id = uint64(0xabc123)
	t0 := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	// Node A holds the client span; node B holds the server span whose
	// parent is A's span — the cross-process link the merge restores.
	a := exportServer(t, "node-a", []SpanRecord{
		{Name: "fleet.write.node", Start: t0, Dur: 2 * time.Millisecond, TraceID: id, SpanID: 1},
	})
	b := exportServer(t, "node-b", []SpanRecord{
		{Name: "server.batch", Start: t0.Add(time.Millisecond), Dur: time.Millisecond, TraceID: id, SpanID: 2, ParentID: 1},
	})

	local := NewTracer(8)
	local.RecordSpan(SpanRecord{Name: "fleet.publish", Start: t0.Add(-time.Millisecond), Dur: 4 * time.Millisecond, TraceID: id, SpanID: 3})

	c := &TraceCollector{
		Endpoints: []string{a.URL, b.URL},
		Local:     local,
		LocalNode: "router",
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	merged, err := c.Collect(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Spans) != 3 {
		t.Fatalf("merged %d spans, want 3: %+v", len(merged.Spans), merged.Spans)
	}
	if got := merged.NodeCount(); got != 3 {
		t.Fatalf("NodeCount = %d, want 3", got)
	}
	// Start-sorted: router publish, then A's write, then B's batch.
	if merged.Spans[0].Node != "router" || merged.Spans[1].Node != "node-a" || merged.Spans[2].Node != "node-b" {
		t.Fatalf("merge order wrong: %+v", merged.Spans)
	}

	var sb strings.Builder
	if _, err := merged.WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "3 spans across 3 node(s)") {
		t.Fatalf("timeline header:\n%s", out)
	}
	// The server span nests under its cross-node parent: deeper indent.
	lineA := lineContaining(t, out, "fleet.write.node")
	lineB := lineContaining(t, out, "server.batch")
	if indentAfterNode(lineB) <= indentAfterNode(lineA) {
		t.Fatalf("server.batch should nest under fleet.write.node:\n%s", out)
	}
}

func TestTraceCollectorPartialFleet(t *testing.T) {
	const id = uint64(0x77)
	a := exportServer(t, "node-a", []SpanRecord{
		{Name: "server.get", Start: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC), TraceID: id, SpanID: 9},
	})
	c := &TraceCollector{Endpoints: []string{a.URL, "127.0.0.1:1"}} // second node down
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	merged, err := c.Collect(ctx, id)
	if err != nil {
		t.Fatalf("partial fleet must still merge: %v", err)
	}
	if len(merged.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(merged.Spans))
	}
	var downErr string
	for _, nt := range merged.Nodes {
		if nt.Endpoint == "127.0.0.1:1" {
			downErr = nt.Err
		}
	}
	if downErr == "" {
		t.Fatal("down node's error not reported")
	}
	var sb strings.Builder
	merged.WriteTimeline(&sb)
	if !strings.Contains(sb.String(), "# 127.0.0.1:1") {
		t.Fatalf("timeline must surface the unreachable node:\n%s", sb.String())
	}
}

func TestTraceCollectorAllDown(t *testing.T) {
	c := &TraceCollector{Endpoints: []string{"127.0.0.1:1"}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Collect(ctx, 1); err == nil {
		t.Fatal("all nodes down must error")
	}
}

func TestTraceCollectorNoSpans(t *testing.T) {
	a := exportServer(t, "node-a", nil)
	c := &TraceCollector{Endpoints: []string{a.URL}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Collect(ctx, 42); err == nil {
		t.Fatal("zero retained spans must error")
	}
}

func lineContaining(t *testing.T, out, substr string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	t.Fatalf("no line contains %q:\n%s", substr, out)
	return ""
}

// indentAfterNode measures the indentation between the [node] prefix
// and the span's +offset column.
func indentAfterNode(line string) int {
	rest := line[strings.Index(line, "]")+1:]
	return len(rest) - len(strings.TrimLeft(rest, " "))
}
