package ops

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"directload/internal/metrics"
)

func TestSlowlogFilters(t *testing.T) {
	slow := metrics.NewSlowLog(8, time.Millisecond)
	slow.Maybe("put", []byte("k1"), 2*time.Millisecond, "")
	slow.Maybe("get", []byte("k2"), 3*time.Millisecond, "not found")
	slow.Maybe("put", []byte("k3"), 4*time.Millisecond, "")
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

	// Combined: the op filter runs first, then n cuts to the newest.
	code, body, _ = get(t, srv, "/debug/slowlog?op=put&n=1&format=json")
	entries = nil
	if code != 200 || json.Unmarshal([]byte(body), &entries) != nil || len(entries) != 1 || entries[0].Key != "k3" {
		t.Fatalf("op+n = %d %+v", code, entries)
	}

	// Text path honors the filters too, and a filtered line keeps the
	// error an unfiltered one shows.
	code, body, _ = get(t, srv, "/debug/slowlog?op=get")
	if code != 200 || !strings.Contains(body, "k2") || strings.Contains(body, "k1") {
		t.Fatalf("text op=get = %d:\n%s", code, body)
	}
	if !strings.Contains(body, "err=not found") {
		t.Fatalf("text op=get missing %q:\n%s", "err=not found", body)
	}
}

// TestObservabilityEndpointsNil checks the observability endpoints
// against a zero Config: empty output, never a panic. The SLO is two
// counters on /metrics, so /slo and /events are not served.
func TestObservabilityEndpointsNil(t *testing.T) {
	srv := httptest.NewServer(NewMux(Config{}))
	defer srv.Close()
	if code, _, _ := get(t, srv, "/debug/slowlog?op=put"); code != 200 {
		t.Fatalf("/debug/slowlog?op=put with nil config = %d", code)
	}
	for _, path := range []string{"/slo", "/events"} {
		if code, _, _ := get(t, srv, path); code != http.StatusNotFound {
			t.Fatalf("%s = %d, want 404", path, code)
		}
	}
}
