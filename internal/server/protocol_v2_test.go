package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/metrics/testutil"
	"directload/internal/ssd"
)

// reqBody encodes a request body for the raw-connection tests.
func reqBody(t *testing.T, req request) []byte {
	t.Helper()
	body, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// rawFirstFrame dials s without a Client, writes body as one
// unsequenced frame and returns the connection for the test to read the
// answer from.
func rawFirstFrame(t *testing.T, s *Server, body []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addrOf(s))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn, body); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestHelloReplyBytes pins the hello reply byte for byte, because
// bench/wire.go and any other hand-built dialer depend on it: a hello is
// answered with exactly one payload byte, the accepted version, whatever
// value it carries. The connection then speaks sequenced frames.
func TestHelloReplyBytes(t *testing.T) {
	s, _ := startServer(t)
	for _, tc := range []struct {
		name  string
		value []byte
	}{
		{"bare", nil},
		{"trace offered", []byte{1}},
		{"unknown bits offered", []byte{0xfe}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := rawFirstFrame(t, s, reqBody(t, request{Op: OpHello, Version: ProtoV2, Value: tc.value}))
			frame, err := readFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			status, payload, err := decodeResponse(frame)
			if err != nil || status != StatusOK || !bytes.Equal(payload, []byte{ProtoV2}) {
				t.Fatalf("hello reply = status %d payload %v, %v; want OK [%d]", status, payload, err, ProtoV2)
			}
			if _, err := conn.Write(appendFrameSeq(nil, 7, reqBody(t, request{Op: OpPing}))); err != nil {
				t.Fatal(err)
			}
			seq, body, err := readFrameSeq(conn, nil)
			if err != nil || seq != 7 {
				t.Fatalf("sequenced ping = seq %d, %v", seq, err)
			}
			if status, payload, _ := decodeResponse(body); status != StatusOK || string(payload) != "pong" {
				t.Fatalf("ping reply = status %d %q", status, payload)
			}
		})
	}
}

// TestHelloRefused pins the other half of the handshake: anything but a
// hello asking for version >= 2 as first frame is answered with one
// StatusFailed frame, counted in server.req.bad, and the connection is
// closed.
func TestHelloRefused(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := startServerReg(t, reg)
	for i, tc := range []struct {
		name string
		body []byte
	}{
		{"request before hello", reqBody(t, request{Op: OpPing})},
		{"hello asking version 1", reqBody(t, request{Op: OpHello, Version: 1})},
		{"hello asking version 0", reqBody(t, request{Op: OpHello})},
		{"body too short for any request", []byte{OpHello, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := rawFirstFrame(t, s, tc.body)
			frame, err := readFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			status, payload, err := decodeResponse(frame)
			if err != nil || status != StatusFailed || len(payload) == 0 {
				t.Fatalf("reply = status %d payload %q, %v; want StatusFailed with a message", status, payload, err)
			}
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read after the refusal = %v, want EOF", err)
			}
			if got := reg.Snapshot()["server.req.bad"]; got != int64(i+1) {
				t.Fatalf("server.req.bad = %v, want %d", got, i+1)
			}
		})
	}
}

// TestRetiredHasOpRefused: opcode 6 keeps its number as the metric label
// of RESP EXISTS, and the native door no longer serves it.
func TestRetiredHasOpRefused(t *testing.T) {
	if OpHas != 6 {
		t.Fatalf("OpHas = %d, want 6", OpHas)
	}
	checkRetiredOp(t, OpHas)
}

// TestRetiredMetricsOpRefused: opcode 10 keeps its number, and the
// registry it served is read over HTTP (/metrics?format=json).
func TestRetiredMetricsOpRefused(t *testing.T) {
	if OpMetrics != 10 {
		t.Fatalf("OpMetrics = %d, want 10", OpMetrics)
	}
	checkRetiredOp(t, OpMetrics)
}

// checkRetiredOp sends op after the hello: it is answered like any
// unknown op — StatusFailed, counted in server.req.bad — and the
// connection stays up.
func checkRetiredOp(t *testing.T, op uint8) {
	t.Helper()
	reg := metrics.NewRegistry()
	s, _ := startServerReg(t, reg)
	conn := helloConn(t, s)
	br := bufio.NewReader(conn)
	bad := reg.Snapshot()["server.req.bad"]
	if _, err := conn.Write(appendFrameSeq(nil, 1, reqBody(t, request{Op: op, Version: 1, Key: []byte("k")}))); err != nil {
		t.Fatal(err)
	}
	seq, status, payload := readReply(t, conn, br, fmt.Sprintf("op %d", op))
	if seq != 1 || status != StatusFailed || string(payload) != "unknown op" {
		t.Fatalf("op %d reply: seq %d, status %d, %q; want StatusFailed \"unknown op\"", op, seq, status, payload)
	}
	if got := reg.Snapshot()["server.req.bad"]; got != bad.(int64)+1 {
		t.Fatalf("server.req.bad = %v, want %v", got, bad.(int64)+1)
	}
	if _, err := conn.Write(appendFrameSeq(nil, 2, reqBody(t, request{Op: OpPing}))); err != nil {
		t.Fatal(err)
	}
	seq, status, payload = readReply(t, conn, br, fmt.Sprintf("the PING after op %d", op))
	if seq != 2 || status != StatusOK || string(payload) != "pong" {
		t.Fatalf("PING reply: seq %d, status %d, %q", seq, status, payload)
	}
}

// TestDialRefusedHello: a listener that answers the hello with
// StatusFailed, or accepts a version below 2, fails the dial — there is
// no other protocol to fall back to.
func TestDialRefusedHello(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply []byte
	}{
		{"status failed", encodeResponse(StatusFailed, []byte("unknown op"))},
		{"accepted version 1", encodeResponse(StatusOK, []byte{1})},
		{"empty payload", encodeResponse(StatusOK, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, err := readFrame(conn); err != nil {
					return
				}
				writeFrame(conn, tc.reply)
				io.Copy(io.Discard, conn) // hold the conn open until the client gives up
			}()
			cl, err := Dial(ln.Addr().String(), WithTimeout(5*time.Second))
			if err == nil {
				cl.Close()
				t.Fatal("Dial succeeded against a listener that refused the hello")
			}
		})
	}
}

// TestPipelineEndToEnd sends 200 PUTs and then 200 GETs as pipelined
// frames on one connection of the real server and wants the replies in
// request order, which the server keeps for everything but a GET parked
// on the engine lock (none is here).
func TestPipelineEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	s, _ := startServerReg(t, reg)
	conn := helloConn(t, s)
	br := bufio.NewReader(conn)
	const n = 200
	key := func(i int) []byte { return []byte(fmt.Sprintf("pipe-%03d", i)) }
	burst := func(op uint8, base uint32, check func(i int, status uint8, payload []byte) error) {
		t.Helper()
		var frames []byte
		for i := 0; i < n; i++ {
			req := request{Op: op, Version: 1, Key: key(i)}
			if op == OpPut {
				req.Value = key(i)
			}
			frames = appendFrameSeq(frames, base+uint32(i), reqBody(t, req))
		}
		written := make(chan error, 1)
		go func() {
			_, err := conn.Write(frames)
			written <- err
		}()
		for i := 0; i < n; i++ {
			seq, status, payload := readReply(t, conn, br, "pipelined reply")
			if seq != base+uint32(i) {
				t.Fatalf("reply %d has seq %d, want %d: out of request order", i, seq, base+uint32(i))
			}
			if err := check(i, status, payload); err != nil {
				t.Error(err)
			}
		}
		if err := <-written; err != nil {
			t.Fatal(err)
		}
	}
	burst(OpPut, 1, func(i int, status uint8, payload []byte) error {
		if status != StatusOK {
			return fmt.Errorf("put %s: status %d %q", key(i), status, payload)
		}
		return nil
	})
	burst(OpGet, 1+n, func(i int, status uint8, payload []byte) error {
		if status != StatusOK || !bytes.Equal(payload, key(i)) {
			return fmt.Errorf("get %s = status %d %q", key(i), status, payload)
		}
		return nil
	})
	// The gauge drained once every reply was delivered.
	if got := reg.Snapshot()["server.pipeline.inflight"]; got != int64(0) {
		t.Fatalf("server.pipeline.inflight = %v, want 0 after drain", got)
	}
}

// TestBatchPartialFailure verifies one bad sub-op neither fails the
// frame nor blocks its siblings, and that the per-op error keeps
// sentinel identity.
func TestBatchPartialFailure(t *testing.T) {
	reg := metrics.NewRegistry()
	_, cl := startServerReg(t, reg)
	ctx := context.Background()
	b := cl.Batcher()
	if err := b.Put(ctx, []byte("good-1"), 1, []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	// Del of a key that never existed: the engine rejects it.
	if err := b.add(ctx, BatchOp{Op: OpDel, Version: 1, Key: []byte("no-prior")}); err != nil {
		t.Fatal(err)
	}
	if err := b.Put(ctx, []byte("good-2"), 1, []byte("v2"), false); err != nil {
		t.Fatal(err)
	}
	err := b.Flush(ctx)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("Flush err = %v, want *BatchError", err)
	}
	if be.Ops != 3 || len(be.Failed) != 1 || be.Failed[0].Index != 1 {
		t.Fatalf("BatchError = %+v", be)
	}
	if string(be.Failed[0].Op.Key) != "no-prior" {
		t.Fatalf("failed op key = %q", be.Failed[0].Op.Key)
	}
	// Siblings landed.
	for _, k := range []string{"good-1", "good-2"} {
		if _, err := cl.GetContext(ctx, []byte(k), 1); err != nil {
			t.Fatalf("sibling %s lost: %v", k, err)
		}
	}
	// server.batch.ops counted the sub-ops.
	if got := reg.Snapshot()["server.batch.ops"]; got != int64(3) {
		t.Fatalf("server.batch.ops = %#v", got)
	}
}

// TestBatchSentinelAcrossWire pins errors.Is(err, core.ErrNotFound) for
// a batched delete of a missing key — the StatusError consolidation.
func TestBatchSentinelAcrossWire(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	b := cl.Batcher()
	if err := b.add(ctx, BatchOp{Op: OpDel, Version: 1, Key: []byte("never-existed")}); err != nil {
		t.Fatal(err)
	}
	err := b.Flush(ctx)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("Flush err = %v", err)
	}
	if !errors.Is(be.Failed[0].Err, core.ErrNotFound) {
		t.Fatalf("sub-op err = %v, want core.ErrNotFound identity", be.Failed[0].Err)
	}
	// The aggregate unwraps to the first failure too.
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("aggregate err = %v, want core.ErrNotFound identity", err)
	}
}

// TestBatcherAutoFlush verifies the op-count bound flushes eagerly: the
// ops past it land before the final Flush.
func TestBatcherAutoFlush(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	b := cl.Batcher()
	const n = batchMaxOps + 20
	for i := 0; i < n; i++ {
		if err := b.Put(ctx, []byte(fmt.Sprintf("af-%04d", i)), 1, []byte("v"), false); err != nil {
			t.Fatal(err)
		}
	}
	if len(b.ops) != n-batchMaxOps {
		t.Fatalf("%d ops buffered, want %d: auto-flush never fired", len(b.ops), n-batchMaxOps)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	entries, _, err := cl.RangeContext(ctx, []byte("af-"), []byte("af-~"), 2*n)
	if err != nil || len(entries) != n {
		t.Fatalf("Range = %d entries, %v", len(entries), err)
	}
}

// TestStatusErrorIdentity pins the single-request error consolidation:
// engine sentinels hold across the wire.
func TestStatusErrorIdentity(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	_, err := cl.GetContext(ctx, []byte("absent"), 1)
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("err = %v, want core.ErrNotFound", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != StatusNotFound {
		t.Fatalf("err = %#v, want *StatusError{StatusNotFound}", err)
	}
}

// TestRangeAppliedLimit pins the limit<=0 semantics: zero asks for the
// server default and the reply reports what was applied; explicit
// limits echo back; oversized asks clamp to the cap.
func TestRangeAppliedLimit(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := cl.PutContext(ctx, []byte(fmt.Sprintf("rl-%02d", i)), 1, []byte("v"), false); err != nil {
			t.Fatal(err)
		}
	}
	entries, applied, err := cl.RangeContext(ctx, nil, nil, 0)
	if err != nil || len(entries) != 10 {
		t.Fatalf("Range(0) = %d entries, %v", len(entries), err)
	}
	if applied != rangeCap {
		t.Fatalf("applied = %d, want server default %d", applied, rangeCap)
	}
	if _, applied, _ = cl.RangeContext(ctx, nil, nil, 7); applied != 7 {
		t.Fatalf("applied = %d, want 7", applied)
	}
	if _, applied, _ = cl.RangeContext(ctx, nil, nil, -5); applied != rangeCap {
		t.Fatalf("negative limit applied = %d, want server default", applied)
	}
	if _, applied, _ = cl.RangeContext(ctx, nil, nil, rangeCap+999); applied != rangeCap {
		t.Fatalf("oversized limit applied = %d, want cap %d", applied, rangeCap)
	}
}

// scriptedServer accepts connections on a loopback listener until the
// test ends, answers each one's hello and hands it to serve, on a
// goroutine per connection. It returns the address and the count of
// connections accepted so far.
func scriptedServer(t *testing.T, serve func(conn net.Conn)) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := new(atomic.Int32)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer conn.Close()
				frame, _ := readFrame(conn)
				if req, err := decodeRequest(frame); err != nil || req.Op != OpHello {
					return
				}
				writeFrame(conn, encodeResponse(StatusOK, []byte{ProtoV2}))
				serve(conn)
			}()
		}
	}()
	return ln.Addr().String(), accepted
}

// TestDeadlineExpiryMidFrame verifies a context deadline fires while a
// response is outstanding (the scripted server swallows the first
// request it is sent), and that the next call succeeds: the abandoned
// call closed the connection, and the next one redials.
func TestDeadlineExpiryMidFrame(t *testing.T) {
	var reqs atomic.Int32
	addr, accepted := scriptedServer(t, func(conn net.Conn) {
		for {
			seq, _, err := readFrameSeq(conn, nil)
			if err != nil {
				return
			}
			if reqs.Add(1) == 1 {
				continue // swallow: the client's deadline must fire
			}
			conn.Write(appendFrameSeq(nil, seq, encodeResponse(StatusOK, []byte("pong"))))
		}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = cl.PingContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline did not bound the wait")
	}
	if err := cl.PingContext(context.Background()); err != nil {
		t.Fatalf("post-deadline ping: %v", err)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("%d connections accepted, want 2: the abandoned one and the redial", got)
	}
}

// TestQueuedCallerHonoursDeadline: a caller queued behind a call the
// server never answers gives up at its own deadline, not the stalled
// call's.
func TestQueuedCallerHonoursDeadline(t *testing.T) {
	arrived := make(chan struct{}, 1)
	addr, _ := scriptedServer(t, func(conn net.Conn) {
		for {
			if _, _, err := readFrameSeq(conn, nil); err != nil {
				return
			}
			arrived <- struct{}{}
		}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stalledCtx, cancelStalled := context.WithCancel(context.Background())
	stalled := make(chan error, 1)
	go func() { stalled <- cl.PingContext(stalledCtx) }()
	<-arrived // the stalled call holds the connection
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := cl.PingContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued call err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("queued call returned after %v, past its 100ms deadline", waited)
	}
	cancelStalled()
	if err := <-stalled; !errors.Is(err, context.Canceled) {
		t.Fatalf("stalled call err = %v, want Canceled", err)
	}
}

// TestReplyWithOtherSeqClosesConn: a reply that carries another request's
// seq fails the call, and the client closes the connection rather than
// read on in a stream it can no longer match.
func TestReplyWithOtherSeqClosesConn(t *testing.T) {
	closed := make(chan error, 1)
	addr, _ := scriptedServer(t, func(conn net.Conn) {
		seq, _, err := readFrameSeq(conn, nil)
		if err != nil {
			closed <- err
			return
		}
		conn.Write(appendFrameSeq(nil, seq+1, encodeResponse(StatusOK, []byte("pong"))))
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, err = conn.Read(make([]byte, 1))
		closed <- err
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.PingContext(context.Background()); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("ping answered under another seq: err = %v, want ErrBadFrame", err)
	}
	if err := <-closed; err != io.EOF {
		t.Fatalf("server read after the mismatched reply = %v, want EOF", err)
	}
}

// TestServerRestartBetweenCalls stops the server under an idle client and
// starts another on the same address and engine: the next call fails as a
// transport error, not a server status, and the one after it redials and
// succeeds.
func TestServerRestartBetweenCalls(t *testing.T) {
	dev, err := ssd.NewDevice(ssd.DefaultConfig(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{AOF: aof.Config{FileSize: 4 << 20, GCThreshold: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	serve := func(ln net.Listener) (stop func()) {
		s := New(db)
		done := make(chan error, 1)
		go func() { done <- s.Serve(ln) }()
		return func() {
			s.Close()
			ln.Close()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	stop := serve(ln)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := cl.PutContext(ctx, []byte("k"), 1, []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	stop()
	for i := 0; ; i++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if i == 50 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer serve(ln)()
	var se *StatusError
	if _, err := cl.GetContext(ctx, []byte("k"), 1); err == nil || errors.As(err, &se) {
		t.Fatalf("first call after the restart = %v, want a transport error", err)
	}
	if val, err := cl.GetContext(ctx, []byte("k"), 1); err != nil || string(val) != "v" {
		t.Fatalf("second call after the restart = %q, %v", val, err)
	}
}

// TestIdleClientRunsNoGoroutine: dialing and making a call leaves no
// goroutine behind on the client's side; the server's per-connection
// handler is the one newcomer allowed.
func TestIdleClientRunsNoGoroutine(t *testing.T) {
	s, _ := startServer(t)
	var cl *Client
	defer func() { cl.Close() }()
	t.Run("dial and call", func(t *testing.T) {
		testutil.CheckGoroutines(t, testutil.Allow("(*Door).serveConn"))
		var err error
		if cl, err = Dial(addrOf(s), WithTimeout(5*time.Second)); err != nil {
			t.Fatal(err)
		}
		if err := cl.PingContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDialTimeoutOption verifies WithTimeout supplies a default
// deadline when the context has none.
func TestDialTimeoutOption(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		frame, _ := readFrame(conn)
		if req, err := decodeRequest(frame); err != nil || req.Op != OpHello {
			return
		}
		writeFrame(conn, encodeResponse(StatusOK, []byte{ProtoV2}))
		// Then never answer anything again.
		for {
			if _, _, err := readFrameSeq(conn, nil); err != nil {
				return
			}
		}
	}()
	cl, err := Dial(ln.Addr().String(), WithTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.PingContext(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from WithTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("WithTimeout did not bound the wait")
	}
}

// TestMaxInFlightBackpressure floods one client with concurrent callers,
// four times the server's per-connection window: they queue for its one
// request in flight, and each gets its own reply, exactly once.
func TestMaxInFlightBackpressure(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	const n = 4 * defaultMaxInFlight
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("bp-%03d", i))
			if err := cl.PutContext(ctx, key, 1, key, false); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	entries, _, err := cl.RangeContext(ctx, []byte("bp-"), []byte("bp-~"), 0)
	if err != nil || len(entries) != n {
		t.Fatalf("Range = %d entries, %v", len(entries), err)
	}
}

// TestSeqFrameCodec round-trips the seq framing and rejects runts.
func TestSeqFrameCodec(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(appendFrameSeq(nil, 42, []byte("hello")))
	seq, body, err := readFrameSeq(&buf, nil)
	if err != nil || seq != 42 || string(body) != "hello" {
		t.Fatalf("round trip = %d, %q, %v", seq, body, err)
	}
	// A frame shorter than its own seq field is malformed.
	var runt bytes.Buffer
	hdr := binary.LittleEndian.AppendUint32(nil, 2)
	runt.Write(hdr)
	runt.Write([]byte{0, 0})
	if _, _, err := readFrameSeq(&runt, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("runt err = %v", err)
	}
}

// TestSeqPastBit31 carries one connection's sequence numbers across bit
// 31 and across the uint32 wrap. Every seq bit is the caller's, so the
// 2^31-th request on a connection is parsed and answered like the first.
func TestSeqPastBit31(t *testing.T) {
	_, cl := startServer(t)
	for _, next := range []uint32{1<<31 - 2, 1<<32 - 2} {
		cl.conn.seq = next
		for i := uint32(1); i <= 4; i++ {
			seq := next + i
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			err := cl.PutContext(ctx, []byte(fmt.Sprintf("seq-%08x", seq)), 1, []byte("v"), false)
			cancel()
			if err != nil {
				t.Fatalf("put at seq %#08x: %v", seq, err)
			}
		}
	}
}

// TestBatchCodec round-trips batch bodies and replies, and rejects
// count mismatches and non-batchable ops.
func TestBatchCodec(t *testing.T) {
	ops := []BatchOp{
		{Op: OpPut, Version: 3, Key: []byte("a"), Value: []byte("va")},
		{Op: OpPutDedup, Version: 4, Key: []byte("b")},
		{Op: OpDel, Version: 3, Key: []byte("c")},
		{Op: OpDropVersion, Version: 1},
	}
	packed, err := encodeBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := decodeBatch(packed, len(ops))
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range decoded {
		if req.Op != ops[i].Op || req.Version != ops[i].Version ||
			!bytes.Equal(req.Key, ops[i].Key) || !bytes.Equal(req.Value, ops[i].Value) {
			t.Fatalf("sub-op %d = %+v, want %+v", i, req, ops[i])
		}
	}
	if _, err := decodeBatch(packed, len(ops)+1); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("count mismatch err = %v", err)
	}
	if _, err := encodeBatch([]BatchOp{{Op: OpGet, Key: []byte("x")}}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("non-batchable err = %v", err)
	}
	reply := encodeBatchReply([]subStatus{
		{status: StatusOK},
		{status: StatusNotFound, msg: []byte("missing")},
	})
	statuses, err := decodeBatchReply(reply)
	if err != nil || len(statuses) != 2 {
		t.Fatalf("reply = %+v, %v", statuses, err)
	}
	if statuses[1].status != StatusNotFound || string(statuses[1].msg) != "missing" {
		t.Fatalf("reply[1] = %+v", statuses[1])
	}
}
