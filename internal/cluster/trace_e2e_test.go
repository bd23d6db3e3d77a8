package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"directload/internal/bifrost"
	"directload/internal/metrics"
	"directload/internal/ops"
	"directload/internal/server"
)

// TestFleetPublishOneTrace is the end-to-end tracing acceptance run: a
// publish fanned out to every node of a W = N fleet over real TCP must
// produce ONE trace that covers the cluster publish, the Bifrost
// dedup/ship phases, the per-replica batch flushes, the server-side
// batch handlers, and each engine write — and /debug/trace must render
// it.
func TestFleetPublishOneTrace(t *testing.T) {
	reg := metrics.NewRegistry()
	addr1, _ := startNode(t, reg)
	addr2, _ := startNode(t, reg)

	cfg := DefaultConfig()
	cfg.Metrics = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	d.AttachFleet(everyNodeFleet(t, reg, []string{addr1, addr2},
		server.WithPoolSize(2), server.WithMetrics(reg)))

	const n = 40
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		entries = append(entries, Entry{
			Key:    []byte(fmt.Sprintf("tk-%03d", i)),
			Value:  []byte(fmt.Sprintf("tv-%03d", i)),
			Stream: bifrost.StreamInverted,
		})
	}
	ctx, end := reg.StartSpan(context.Background(), "test.publish")
	sc, ok := metrics.SpanFromContext(ctx)
	if !ok {
		t.Fatal("no span in the publish context")
	}
	if _, err := d.PublishVersionContext(ctx, 1, entries); err != nil {
		t.Fatalf("publish: %v", err)
	}
	end(nil)

	// One trace covers the whole fan-out.
	trace := reg.Tracer().Trace(sc.TraceID)
	counts := make(map[string]int)
	for _, rec := range trace {
		if rec.TraceID != sc.TraceID {
			t.Fatalf("span %q escaped into trace %016x", rec.Name, rec.TraceID)
		}
		counts[rec.Name]++
	}
	for name, want := range map[string]int{
		"cluster.publish":     1,
		"bifrost.dedup":       1,
		"bifrost.ship":        1,
		"fleet.publish":       1,
		"fleet.replica.write": 2, // one per node
	} {
		if counts[name] != want {
			t.Fatalf("trace has %d %q spans, want %d (all: %v)", counts[name], name, want, counts)
		}
	}
	// The wire hop: at least one flush per node, each answered by a
	// server-side batch handler, each engine write its own sub-op span.
	if counts["client.batch.flush"] < 2 {
		t.Fatalf("trace has %d client.batch.flush spans, want >= 2 (all: %v)",
			counts["client.batch.flush"], counts)
	}
	if counts["server.req.batch"] < 2 {
		t.Fatalf("trace has %d server.req.batch spans, want >= 2 (all: %v)",
			counts["server.req.batch"], counts)
	}
	if counts["server.batch.put"] != n*2 {
		t.Fatalf("trace has %d server.batch.put spans, want %d (all: %v)",
			counts["server.batch.put"], n*2, counts)
	}

	// And the operator endpoint renders the same timeline.
	srv := httptest.NewServer(ops.NewMux(ops.Config{Registry: reg}))
	defer srv.Close()
	resp, err := srv.Client().Get(fmt.Sprintf("%s/debug/trace?id=%016x", srv.URL, sc.TraceID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/trace = %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{"cluster.publish", "bifrost.ship", "fleet.replica.write",
		"server.req.batch", "server.batch.put"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/debug/trace output missing %q:\n%s", want, body)
		}
	}
}
