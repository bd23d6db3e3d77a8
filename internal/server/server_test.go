package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/ssd"
)

func startServer(t *testing.T) (*Server, *Client) {
	return startServerReg(t, nil)
}

func startServerReg(t *testing.T, reg *metrics.Registry) (*Server, *Client) {
	t.Helper()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(256 << 20))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF:     aof.Config{FileSize: 4 << 20, GCThreshold: 0.25},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return serveDB(t, db, reg)
}

// serveDB serves db on a loopback listener until the test ends, then
// closes both, and returns the server with a client dialed to it.
func serveDB(t *testing.T, db *core.DB, reg *metrics.Registry) (*Server, *Client) {
	t.Helper()
	s := New(db)
	s.SetMetrics(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		db.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not return after Close")
		}
	})
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return s, cl
}

func TestPingPutGetDel(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	if err := cl.PingContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutContext(ctx, []byte("k"), 1, []byte("hello"), false); err != nil {
		t.Fatal(err)
	}
	val, err := cl.GetContext(ctx, []byte("k"), 1)
	if err != nil || string(val) != "hello" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	if err := cl.DelContext(ctx, []byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetContext(ctx, []byte("k"), 1); !errors.Is(err, core.ErrDeleted) {
		t.Fatalf("Get after Del err = %v", err)
	}
	if _, err := cl.GetContext(ctx, []byte("missing"), 1); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Get missing err = %v", err)
	}
}

func TestDedupOverWire(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	if err := cl.PutContext(ctx, []byte("k"), 1, []byte("base"), false); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutContext(ctx, []byte("k"), 2, nil, true); err != nil {
		t.Fatal(err)
	}
	val, err := cl.GetContext(ctx, []byte("k"), 2)
	if err != nil || string(val) != "base" {
		t.Fatalf("dedup Get = %q, %v", val, err)
	}
}

func TestHasAndDropVersion(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	cl.PutContext(ctx, []byte("a"), 1, []byte("v"), false)
	cl.PutContext(ctx, []byte("a"), 2, []byte("v"), false)
	ok, err := cl.HasContext(ctx, []byte("a"), 1)
	if err != nil || !ok {
		t.Fatalf("Has = %v, %v", ok, err)
	}
	if err := cl.DropVersionContext(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if ok, _ := cl.HasContext(ctx, []byte("a"), 1); ok {
		t.Fatal("Has should be false after DropVersion")
	}
	if ok, _ := cl.HasContext(ctx, []byte("a"), 2); !ok {
		t.Fatal("v2 should survive")
	}
}

func TestRangeOverWire(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		cl.PutContext(ctx, []byte(fmt.Sprintf("key-%02d", i)), 1, []byte("v"), false)
	}
	entries, _, err := cl.RangeContext(ctx, []byte("key-02"), []byte("key-07"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("Range = %d entries, want 5", len(entries))
	}
	if string(entries[0].Key) != "key-02" || entries[0].Version != 1 {
		t.Fatalf("first entry = %+v", entries[0])
	}
	// Limit applies.
	entries, _, err = cl.RangeContext(ctx, nil, nil, 3)
	if err != nil || len(entries) != 3 {
		t.Fatalf("limited Range = %d, %v", len(entries), err)
	}
}

func TestStatsOverWire(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	cl.PutContext(ctx, []byte("k"), 1, bytes.Repeat([]byte{1}, 1000), false)
	st, err := cl.StatsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Puts != 1 || st.Engine.UserWriteBytes != 1001 {
		t.Fatalf("Stats = %+v", st.Engine)
	}
	if st.Conns < 1 {
		t.Fatalf("Conns = %d", st.Conns)
	}
}

func TestLargeValue(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	val := bytes.Repeat([]byte{0xAB}, 2<<20)
	if err := cl.PutContext(ctx, []byte("big"), 1, val, false); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetContext(ctx, []byte("big"), 1)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("large round-trip failed: %d bytes, %v", len(got), err)
	}
}

func TestConcurrentClients(t *testing.T) {
	s, _ := startServer(t)
	ctx := context.Background()
	addr := s.Addr().String()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 100; i++ {
				key := []byte(fmt.Sprintf("c%d-k%03d", c, i))
				if err := cl.PutContext(ctx, key, 1, key, false); err != nil {
					errCh <- err
					return
				}
				got, err := cl.GetContext(ctx, key, 1)
				if err != nil || !bytes.Equal(got, key) {
					errCh <- fmt.Errorf("round-trip %s: %v", key, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	// The key length travels as a uint16: 65,536 must be refused, not
	// truncated to 0, and 65,535 must come back whole.
	if _, err := encodeRequest(request{Op: OpPut, Key: make([]byte, 1<<16)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize key err = %v", err)
	}
	body, err := encodeRequest(request{Op: OpPut, Key: make([]byte, MaxKeyLen)})
	if err != nil {
		t.Fatalf("longest key: %v", err)
	}
	if req, err := decodeRequest(body); err != nil || len(req.Key) != MaxKeyLen {
		t.Fatalf("longest key decoded to %d bytes, %v", len(req.Key), err)
	}
	if _, err := encodeRequest(request{Op: OpPut, Key: []byte("k"), Value: make([]byte, MaxValueLen+1)}); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversize value err = %v", err)
	}
}

func TestCloseUnblocksServe(t *testing.T) {
	// Covered by the startServer cleanup; this exercises double Close.
	s, _ := startServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double Close should be a no-op")
	}
}

// Property: request encode/decode round-trips arbitrary payloads.
func TestQuickProtocolRoundTrip(t *testing.T) {
	f := func(op uint8, version uint64, key, value []byte) bool {
		if len(key) > MaxKeyLen || len(value) > 1<<16 {
			return true
		}
		req := request{Op: op, Version: version, Key: key, Value: value}
		body, err := encodeRequest(req)
		if err != nil {
			return false
		}
		got, err := decodeRequest(body)
		if err != nil {
			return false
		}
		return got.Op == op && got.Version == version &&
			bytes.Equal(got.Key, key) && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOpMetricsRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	_, cl := startServerReg(t, reg)
	ctx := context.Background()

	for i := 0; i < 10; i++ {
		key := []byte(fmt.Sprintf("mk-%02d", i))
		if err := cl.PutContext(ctx, key, 1, []byte("payload"), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.GetContext(ctx, []byte("mk-00"), 1); err != nil {
		t.Fatal(err)
	}

	m, err := cl.MetricsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Every exported histogram is on the wall clock: the simulated
	// device's time stays in the values the engine returns.
	for name := range m {
		if strings.HasSuffix(name, "device_us") {
			t.Errorf("OpMetrics exports %s, a virtual-clock histogram", name)
		}
	}
	// A request is counted once, as its opcode's latency histogram count.
	putLat, ok := m["server.req.put.latency_us"].(map[string]any)
	if !ok || putLat["count"].(float64) != 10 {
		t.Fatalf("server.req.put.latency_us = %#v", m["server.req.put.latency_us"])
	}
	if putLat["p99"].(float64) > putLat["max"].(float64) {
		t.Fatalf("inconsistent snapshot over the wire: %#v", putLat)
	}
	if getLat, ok := m["server.req.get.latency_us"].(map[string]any); !ok || getLat["count"].(float64) != 1 {
		t.Fatalf("server.req.get.latency_us = %#v", m["server.req.get.latency_us"])
	}
	if _, ok := m["server.req.put"]; ok {
		t.Fatal("server.req.put is a second copy of server.req.put.latency_us's count")
	}
	// AOF metrics propagated through the engine's store.
	if got, ok := m["aof.appends"].(float64); !ok || got < 10 {
		t.Fatalf("aof.appends = %#v", m["aof.appends"])
	}
	// Software WA is present and finite (>= 1: the AOF framing adds
	// bytes on top of the user payload).
	wa, ok := m["qindb.software_wa"].(float64)
	if !ok || wa < 1 || wa > 100 {
		t.Fatalf("qindb.software_wa = %#v", m["qindb.software_wa"])
	}
	// Connection gauge counts this client.
	if got, ok := m["server.conns.active"].(float64); !ok || got < 1 {
		t.Fatalf("server.conns.active = %#v", m["server.conns.active"])
	}
}

func TestOpMetricsUninstrumented(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	m, err := cl.MetricsContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 0 {
		t.Fatalf("uninstrumented server returned %v", m)
	}
}

// TestSlowLogCapture checks that a request over the slowlog threshold
// lands in the server's slow-op log with its op and key.
func TestSlowLogCapture(t *testing.T) {
	s, cl := startServer(t)
	slow := metrics.NewSlowLog(8, 1) // 1ns: everything qualifies
	s.SetSlowLog(slow)
	if err := cl.PutContext(context.Background(), []byte("slowk"), 1, []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	// One caller on an idle connection: the reader answers the GET itself.
	if _, err := cl.GetContext(context.Background(), []byte("slowk"), 1); err != nil {
		t.Fatal(err)
	}
	entries := slow.Entries(0)
	for _, op := range []string{"put", "get"} {
		found := false
		for _, e := range entries {
			found = found || (e.Op == op && e.Key == "slowk")
		}
		if !found {
			t.Fatalf("no slow entry for %s/slowk: %+v", op, entries)
		}
	}
}
