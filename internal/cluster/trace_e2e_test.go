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
)

// TestPublishOneTrace is the end-to-end tracing acceptance run for the
// simulated deployment: one publish must produce ONE trace in which the
// cluster publish parents the Bifrost dedup and ship phases, and the
// ship phase parents one span per slice delivery — and /debug/trace must
// render it. The wire half of a publish (router, batch flush, server
// handlers) is internal/fleet's TestFleetE2EOneTrace.
func TestPublishOneTrace(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const n = 40
	entries := func(version int) []Entry {
		out := make([]Entry, 0, n)
		for i := 0; i < n; i++ {
			val := fmt.Sprintf("tv-%03d", i)
			if i%2 == 0 {
				val = fmt.Sprintf("tv-%d-%03d", version, i) // changes every version
			}
			out = append(out, Entry{
				Key:    []byte(fmt.Sprintf("tk-%03d", i)),
				Value:  []byte(val),
				Stream: bifrost.StreamInverted,
			})
		}
		return out
	}
	if _, err := d.PublishVersion(1, entries(1)); err != nil {
		t.Fatalf("publish v1: %v", err)
	}
	ctx, end := reg.StartSpan(context.Background(), "test.publish")
	sc, ok := metrics.SpanFromContext(ctx)
	if !ok {
		t.Fatal("no span in the publish context")
	}
	if _, err := d.PublishVersionContext(ctx, 2, entries(2)); err != nil {
		t.Fatalf("publish v2: %v", err)
	}
	end(nil)

	// One trace covers the whole publish, each phase under its parent.
	byName := make(map[string][]metrics.SpanRecord)
	for _, rec := range reg.Tracer().Trace(sc.TraceID) {
		if rec.TraceID != sc.TraceID {
			t.Fatalf("span %q escaped into trace %016x", rec.Name, rec.TraceID)
		}
		byName[rec.Name] = append(byName[rec.Name], rec)
	}
	for _, name := range []string{"cluster.publish", "bifrost.dedup", "bifrost.ship"} {
		if len(byName[name]) != 1 {
			t.Fatalf("trace has %d %q spans, want 1 (all: %v)", len(byName[name]), name, byName)
		}
	}
	root := byName["cluster.publish"][0]
	if root.ParentID != sc.SpanID {
		t.Fatalf("cluster.publish parent = %016x, want the caller's span %016x", root.ParentID, sc.SpanID)
	}
	for _, name := range []string{"bifrost.dedup", "bifrost.ship"} {
		if p := byName[name][0].ParentID; p != root.SpanID {
			t.Fatalf("%s parent = %016x, want cluster.publish %016x", name, p, root.SpanID)
		}
	}
	// Half the values are unchanged since v1, so the dedup pass elided
	// bytes and says how many.
	if note := byName["bifrost.dedup"][0].Note; note == "elided=0B" || !strings.HasPrefix(note, "elided=") {
		t.Fatalf("bifrost.dedup note = %q, want a non-zero elided byte count", note)
	}
	ship := byName["bifrost.ship"][0]
	deliveries := byName["bifrost.ship.delivery"]
	if len(deliveries) < len(d.DCs) {
		t.Fatalf("trace has %d delivery spans, want >= %d (one per DC at least)", len(deliveries), len(d.DCs))
	}
	for _, del := range deliveries {
		if del.ParentID != ship.SpanID {
			t.Fatalf("delivery parent = %016x, want bifrost.ship %016x", del.ParentID, ship.SpanID)
		}
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
	for _, want := range []string{"cluster.publish", "bifrost.dedup", "bifrost.ship", "bifrost.ship.delivery"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/debug/trace output missing %q:\n%s", want, body)
		}
	}
}
