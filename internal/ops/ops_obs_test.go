package ops

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"directload/internal/metrics"
)

func TestTraceExportEndpoint(t *testing.T) {
	mux, _, traceID := testMux(t, nil)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	code, body, hdr := get(t, srv, fmt.Sprintf("/debug/trace?id=%016x&format=json", traceID))
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "json") {
		t.Fatalf("/debug/trace?id&format=json = %d (%s):\n%s", code, hdr.Get("Content-Type"), body)
	}
	var export metrics.TraceExport
	if err := json.Unmarshal([]byte(body), &export); err != nil {
		t.Fatalf("export decode: %v\n%s", err, body)
	}
	if export.TraceID != fmt.Sprintf("%016x", traceID) || len(export.Spans) != 1 || export.Spans[0].Name != "test.op" {
		t.Fatalf("export = %+v", export)
	}

	// Node label rides along when configured.
	reg := metrics.NewRegistry()
	named := httptest.NewServer(NewMux(Config{Registry: reg, Node: "dc1-n7"}))
	defer named.Close()
	code, body, _ = get(t, named, "/debug/trace?id=1&format=json")
	export = metrics.TraceExport{}
	if code != 200 || json.Unmarshal([]byte(body), &export) != nil || export.Node != "dc1-n7" {
		t.Fatalf("named export = %d %+v", code, export)
	}
	if export.Spans == nil || len(export.Spans) != 0 {
		t.Fatalf("unknown trace must export [], got %+v", export.Spans)
	}

	if code, _, _ := get(t, srv, "/debug/trace?id=zzz&format=json"); code != http.StatusBadRequest {
		t.Fatalf("bad id = %d, want 400", code)
	}
}

func TestSlowlogFilters(t *testing.T) {
	slow := metrics.NewSlowLog(8, time.Millisecond)
	slow.Maybe("put", []byte("k1"), 2*time.Millisecond, 0xaaa, "")
	slow.Maybe("get", []byte("k2"), 3*time.Millisecond, 0xbbb, "not found")
	slow.Maybe("put", []byte("k3"), 4*time.Millisecond, 0xbbb, "")
	srv := httptest.NewServer(NewMux(Config{SlowLog: slow}))
	defer srv.Close()

	code, body, _ := get(t, srv, "/debug/slowlog?op=put&format=json")
	var entries []metrics.SlowEntry
	if code != 200 || json.Unmarshal([]byte(body), &entries) != nil || len(entries) != 2 {
		t.Fatalf("op=put = %d:\n%s", code, body)
	}
	for _, e := range entries {
		if e.Op != "put" {
			t.Fatalf("op filter leaked %+v", e)
		}
	}

	code, body, _ = get(t, srv, "/debug/slowlog?trace=bbb&format=json")
	entries = nil
	if code != 200 || json.Unmarshal([]byte(body), &entries) != nil || len(entries) != 2 {
		t.Fatalf("trace=bbb = %d:\n%s", code, body)
	}

	// Combined: op and trace intersect; n cuts to the newest.
	code, body, _ = get(t, srv, "/debug/slowlog?op=put&trace=bbb&format=json")
	entries = nil
	if code != 200 || json.Unmarshal([]byte(body), &entries) != nil || len(entries) != 1 || entries[0].Key != "k3" {
		t.Fatalf("op+trace = %d %+v", code, entries)
	}

	// Text path honors the filters too, and a filtered line keeps the
	// trace id and error an unfiltered one shows.
	code, body, _ = get(t, srv, "/debug/slowlog?op=get")
	if code != 200 || !strings.Contains(body, "k2") || strings.Contains(body, "k1") {
		t.Fatalf("text op=get = %d:\n%s", code, body)
	}
	for _, want := range []string{"trace=0000000000000bbb", "err=not found"} {
		if !strings.Contains(body, want) {
			t.Fatalf("text op=get missing %q:\n%s", want, body)
		}
	}

	if code, _, _ := get(t, srv, "/debug/slowlog?trace=zzz"); code != http.StatusBadRequest {
		t.Fatalf("bad trace = %d, want 400", code)
	}
}

// TestObservabilityEndpointsNil checks the observability endpoints
// against a zero Config: empty output, never a panic. The SLO and the
// fleet's state changes are counters on /metrics, so /slo and /events
// are not served.
func TestObservabilityEndpointsNil(t *testing.T) {
	srv := httptest.NewServer(NewMux(Config{}))
	defer srv.Close()
	for _, path := range []string{
		"/debug/trace?id=1&format=json",
		"/debug/slowlog?op=put&trace=ab",
	} {
		if code, _, _ := get(t, srv, path); code != 200 {
			t.Fatalf("%s with nil config = %d", path, code)
		}
	}
	for _, path := range []string{"/slo", "/events"} {
		if code, _, _ := get(t, srv, path); code != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, code)
		}
	}
}
