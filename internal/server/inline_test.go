package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/blockfs/blockfstest"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/ssd"
)

// readReply reads one sequenced reply within five seconds.
func readReply(t *testing.T, conn net.Conn, br *bufio.Reader, what string) (uint32, uint8, []byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	defer conn.SetReadDeadline(time.Time{})
	seq, body, err := readFrameSeq(br, nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	status, payload, err := decodeResponse(body)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return seq, status, payload
}

// TestGetBehindExclusiveHoldDoesNotStall parks the GC pass of a version
// drop in its first relocation append, which runs while the pass holds
// the engine's lock exclusively, and sends a GET and then a PING on an
// idle connection, then a pipelined burst of PINGs.
// The GET cannot be answered until the pass lets go; the connection must
// not wait for it: the PINGs' replies arrive in order while the GET is
// parked, and the GET's arrives byte for byte once the pass is released.
func TestGetBehindExclusiveHoldDoesNotStall(t *testing.T) {
	// passes counts down the appends let through while armed: the drop's
	// meta-record goes by, and the append after it, the pass's first
	// relocation, parks.
	var armed atomic.Bool
	var passes atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	var released sync.Once
	free := func() { released.Do(func() { close(release) }) }
	defer free() // a failed test still lets the pass end, so the engine can close
	dev, err := ssd.NewDevice(ssd.DefaultConfig(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	fs := &blockfstest.FS{FS: blockfs.NewNativeFS(dev), Append: func(string, []byte) error {
		if armed.Load() && passes.Add(-1) < 0 && armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return nil
	}}
	reg := metrics.NewRegistry()
	db, err := core.Open(fs, core.Options{
		AOF:     aof.Config{FileSize: 512 << 10, GCThreshold: 0.25},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := serveDB(t, db, reg)

	// Version 1 fills the first file; version 2 shares every tenth key's
	// value with it, so that retiring version 1 makes the first file a GC
	// victim whose dedup bases the drop's pass relocates.
	const keys = 40
	key := func(k int) []byte { return []byte(fmt.Sprintf("key-%02d", k)) }
	value := func(k int) []byte { return bytes.Repeat([]byte{byte(k)}, 20<<10) }
	for k := 0; k < keys; k++ {
		if _, err := db.Put(key(k), 1, value(k), false); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < keys; k++ {
		if _, err := db.Put(key(k), 2, value(k+keys), k%10 == 0); err != nil {
			t.Fatal(err)
		}
	}

	conn := helloConn(t, s)
	br := bufio.NewReader(conn)
	passes.Store(1)
	armed.Store(true)
	gcDone := make(chan error, 1)
	go func() {
		_, _, err := db.DropVersion(1)
		gcDone <- err
	}()
	select {
	case <-entered:
	case err := <-gcDone:
		t.Fatalf("the GC pass ended without relocating anything: %v", err)
	}

	if _, err := conn.Write(appendFrameSeq(nil, 1, reqBody(t, request{Op: OpGet, Version: 2, Key: key(0)}))); err != nil {
		t.Fatal(err)
	}
	inflight := reg.Gauge("server.pipeline.inflight")
	for deadline := time.Now().Add(5 * time.Second); inflight.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server.pipeline.inflight = %d, want the GET", inflight.Load())
		}
	}
	if _, err := conn.Write(appendFrameSeq(nil, 2, reqBody(t, request{Op: OpPing}))); err != nil {
		t.Fatal(err)
	}
	seq, status, payload := readReply(t, conn, br, "the PING behind a GET parked on the engine lock")
	if seq != 2 || status != StatusOK || string(payload) != "pong" {
		t.Fatalf("first reply: seq %d, status %d, %q; want the PING's", seq, status, payload)
	}
	// A pipelined burst behind the parked GET is answered in order.
	var burst []byte
	for i := uint32(3); i <= 10; i++ {
		burst = appendFrameSeq(burst, i, reqBody(t, request{Op: OpPing}))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := uint32(3); i <= 10; i++ {
		seq, status, payload := readReply(t, conn, br, "a pipelined PING behind the parked GET")
		if seq != i || status != StatusOK || string(payload) != "pong" {
			t.Fatalf("burst reply: seq %d, status %d, %q; want PING %d's", seq, status, payload, i)
		}
	}

	free()
	seq, status, payload = readReply(t, conn, br, "the GET once the pass let go")
	if seq != 1 || status != StatusOK || !bytes.Equal(payload, value(0)) {
		t.Fatalf("second reply: seq %d, status %d, %d bytes; want the GET's %d", seq, status, len(payload), len(value(0)))
	}
	if err := <-gcDone; err != nil {
		t.Fatal(err)
	}
}

// TestInlineGetCountedOnce sends GETs one at a time and then as one
// pipelined burst, which the reader answers in turn, and wants each set counted exactly once in every signal
// the Backend feeds: the latency histogram (whose count is the request
// count), the read SLO, attribution at 1-in-1 and the in-flight gauge.
func TestInlineGetCountedOnce(t *testing.T) {
	reg := metrics.NewRegistry()
	s, cl := startServerReg(t, reg)
	slo := metrics.NewSLO(metrics.SLOConfig{Name: "node.read"})
	slo.Register(reg)
	s.SetReadSLO(slo)
	s.SetAttribution(1)
	ctx := context.Background()
	if err := cl.PutContext(ctx, []byte("k"), 1, []byte("value"), false); err != nil {
		t.Fatal(err)
	}
	conn := helloConn(t, s)
	br := bufio.NewReader(conn)

	type counts struct{ lat, good, bad, attr int64 }
	now := func() counts {
		c := counts{
			lat:  reg.Histogram("server.req.get.latency_us").Snapshot().Count,
			good: reg.Counter("slo.node.read.good").Load(),
			bad:  reg.Counter("slo.node.read.bad").Load(),
		}
		for _, e := range s.Backend().Attribution().Entries {
			if e.Op == "get" {
				c.attr = e.Samples
			}
		}
		return c
	}
	get := func(seq uint32, key string) []byte {
		return appendFrameSeq(nil, seq, reqBody(t, request{Op: OpGet, Version: 1, Key: []byte(key)}))
	}
	expect := func(what string, before counts, n, bad int64) {
		t.Helper()
		got, want := now(), counts{lat: n, good: n - bad, bad: bad, attr: n}
		got = counts{got.lat - before.lat, got.good - before.good, got.bad - before.bad, got.attr - before.attr}
		if got != want {
			t.Fatalf("%s added %+v, want %+v", what, got, want)
		}
		if g := reg.Gauge("server.pipeline.inflight").Load(); g != 0 {
			t.Fatalf("after %s server.pipeline.inflight = %d, want 0", what, g)
		}
	}

	const n = 32
	before := now()
	for i := uint32(1); i <= n; i++ {
		if _, err := conn.Write(get(i, "k")); err != nil {
			t.Fatal(err)
		}
		if seq, status, payload := readReply(t, conn, br, "a GET on an idle connection"); seq != i || status != StatusOK || string(payload) != "value" {
			t.Fatalf("GET %d: seq %d, status %d, %q", i, seq, status, payload)
		}
	}
	expect("GETs one at a time", before, n, 0)

	before = now()
	var burst []byte
	for i := uint32(1); i <= n; i++ {
		burst = append(burst, get(i, "k")...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, status, payload := readReply(t, conn, br, "a pipelined GET"); status != StatusOK || string(payload) != "value" {
			t.Fatalf("pipelined GET: status %d, %q", status, payload)
		}
	}
	expect("a pipelined burst of GETs", before, n, 0)

	before = now()
	if _, err := conn.Write(get(1, "missing")); err != nil {
		t.Fatal(err)
	}
	if _, status, _ := readReply(t, conn, br, "a GET that misses"); status != StatusNotFound {
		t.Fatalf("GET of a missing key: status %d", status)
	}
	expect("a miss", before, 1, 1)
}
