package ops

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"directload/internal/metrics"
)

func TestDebugAttrib(t *testing.T) {
	tab := metrics.NewAttribTable(64)
	tab.Charge("put", metrics.ResourceDelta{AllocBytes: 70000, AllocObjects: 12, CPU: 30 * time.Microsecond, Wall: 50 * time.Microsecond})
	tab.Charge("put", metrics.ResourceDelta{AllocBytes: 66000, AllocObjects: 10, CPU: 20 * time.Microsecond, Wall: 40 * time.Microsecond})
	tab.Charge("get", metrics.ResourceDelta{AllocBytes: 2000, AllocObjects: 3})
	srv := httptest.NewServer(NewMux(Config{Attrib: tab.Snapshot}))
	defer srv.Close()

	code, body, hdr := get(t, srv, "/debug/attrib")
	if code != 200 {
		t.Fatalf("/debug/attrib = %d: %s", code, body)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("content type = %q", hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, "sampling 1/64") {
		t.Errorf("missing sampling header:\n%s", body)
	}
	// put (68000 bytes/op) sorts above get (2000 bytes/op).
	if !strings.Contains(body, "put") || !strings.Contains(body, "get") ||
		strings.Index(body, "put") > strings.Index(body, "get") {
		t.Errorf("ops missing or unsorted:\n%s", body)
	}

	code, body, hdr = get(t, srv, "/debug/attrib?format=json")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("json form = %d %q", code, hdr.Get("Content-Type"))
	}
	var snap metrics.AttribSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad json: %v\n%s", err, body)
	}
	if snap.SampleEvery != 64 || len(snap.Entries) != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Entries[0].Op != "put" || snap.Entries[0].AllocBytesPerOp != 68000 {
		t.Fatalf("entry 0 = %+v, want put at 68000 bytes/op", snap.Entries[0])
	}
}

func TestDebugAttribUnset(t *testing.T) {
	srv := httptest.NewServer(NewMux(Config{}))
	defer srv.Close()
	if code, _, _ := get(t, srv, "/debug/attrib"); code != 404 {
		t.Fatalf("/debug/attrib without source = %d, want 404", code)
	}
}

func TestDebugAttribDisabledTable(t *testing.T) {
	srv := httptest.NewServer(NewMux(Config{
		Attrib: func() metrics.AttribSnapshot { return metrics.AttribSnapshot{} },
	}))
	defer srv.Close()
	code, body, _ := get(t, srv, "/debug/attrib")
	if code != 200 || !strings.Contains(body, "disabled") {
		t.Fatalf("/debug/attrib disabled = %d %q", code, body)
	}
	// The JSON form still answers, with an empty entry list.
	code, body, _ = get(t, srv, "/debug/attrib?format=json")
	if code != 200 || !strings.Contains(body, `"entries":[]`) {
		t.Fatalf("json disabled = %d %q", code, body)
	}
}

// Profiles are net/http/pprof's own handlers, mounted only behind
// EnablePprof; ?seconds=N on heap/allocs is its windowed delta.
func TestDebugProfileHeap(t *testing.T) {
	srv := httptest.NewServer(NewMux(Config{EnablePprof: true}))
	defer srv.Close()

	for _, path := range []string{
		"/debug/pprof/heap",             // absolute
		"/debug/pprof/heap?seconds=1",   // windowed delta
		"/debug/pprof/allocs?seconds=1", // what `go tool pprof http://.../allocs?seconds=N` fetches
	} {
		code, body, _ := get(t, srv, path)
		if code != 200 {
			t.Fatalf("%s = %d: %s", path, code, body)
		}
		if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
			t.Fatalf("%s did not return a gzipped pprof profile", path)
		}
	}
}

func TestDebugProfileCPU(t *testing.T) {
	srv := httptest.NewServer(NewMux(Config{EnablePprof: true}))
	defer srv.Close()
	code, body, _ := get(t, srv, "/debug/pprof/profile?seconds=1")
	if code != 200 {
		t.Fatalf("cpu profile = %d: %s", code, body)
	}
	if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Fatal("cpu profile is not gzipped pprof output")
	}
}

func TestDebugProfileDisabled(t *testing.T) {
	srv := httptest.NewServer(NewMux(Config{}))
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/heap?seconds=1", "/debug/pprof/", "/debug/profile"} {
		if code, body, _ := get(t, srv, path); code != 404 {
			t.Fatalf("%s without -pprof = %d, want 404: %s", path, code, body)
		}
	}
}
