package ops

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"directload/internal/metrics"
	"directload/internal/metrics/testutil"
)

// testMux builds a mux over a populated registry and slow log.
func testMux(t *testing.T) *http.ServeMux {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.Counter("ops.requests").Add(5)
	reg.Histogram("ops.latency_us").Observe(120)
	slow := metrics.NewSlowLog(8, time.Millisecond)
	slow.Maybe("put", []byte("sk"), 5*time.Millisecond, "")
	return NewMux(Config{Registry: reg, SlowLog: slow})
}

func get(t *testing.T, srv *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsFormats(t *testing.T) {
	mux := testMux(t)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	code, body, _ := get(t, srv, "/metrics")
	if code != 200 || !strings.Contains(body, "ops.requests") {
		t.Fatalf("text /metrics = %d:\n%s", code, body)
	}

	code, body, _ = get(t, srv, "/metrics?format=json")
	if code != 200 {
		t.Fatalf("json /metrics = %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("json /metrics not JSON: %v\n%s", err, body)
	}
	if m["ops.requests"] != float64(5) {
		t.Fatalf("json ops.requests = %v", m["ops.requests"])
	}

	code, body, hdr := get(t, srv, "/metrics?format=prom")
	if code != 200 {
		t.Fatalf("prom /metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("prom Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE ops_requests counter",
		"ops_requests 5",
		"# TYPE ops_latency_us histogram",
		`ops_latency_us_bucket{le="122"} 1`, // 120 sits in [120, 122)
		`ops_latency_us_bucket{le="+Inf"} 1`,
		"ops_latency_us_sum 120",
		"ops_latency_us_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, body)
		}
	}
}

func TestHealthAndReady(t *testing.T) {
	srv := httptest.NewServer(testMux(t))
	defer srv.Close()

	if code, body, _ := get(t, srv, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestSlowlogEndpoint(t *testing.T) {
	srv := httptest.NewServer(testMux(t))
	defer srv.Close()

	code, body, _ := get(t, srv, "/debug/slowlog")
	if code != 200 || !strings.Contains(body, "sk") {
		t.Fatalf("/debug/slowlog = %d:\n%s", code, body)
	}

	code, body, _ = get(t, srv, "/debug/slowlog?format=json")
	var entries []metrics.SlowEntry
	if code != 200 || json.Unmarshal([]byte(body), &entries) != nil || len(entries) != 1 {
		t.Fatalf("json /debug/slowlog = %d:\n%s", code, body)
	}
	if entries[0].Op != "put" {
		t.Fatalf("entry = %+v", entries[0])
	}

	if code, _, _ := get(t, srv, "/debug/slowlog?n=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad n = %d, want 400", code)
	}
}

func TestNilConfigEndpointsDontPanic(t *testing.T) {
	srv := httptest.NewServer(NewMux(Config{}))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/metrics?format=prom", "/metrics?format=json",
		"/debug/slowlog", "/healthz"} {
		if code, _, _ := get(t, srv, path); code != 200 {
			t.Fatalf("%s with nil config = %d", path, code)
		}
	}
	// pprof stays unmounted unless enabled.
	if code, _, _ := get(t, srv, "/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("/debug/pprof/ mounted without EnablePprof (code %d)", code)
	}
}

func TestPprofGated(t *testing.T) {
	srv := httptest.NewServer(NewMux(Config{EnablePprof: true}))
	defer srv.Close()
	if code, body, _ := get(t, srv, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestServerServeShutdown(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg := metrics.NewRegistry()
	s, err := Listen("127.0.0.1:0", Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()

	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The listener is really closed.
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
}
