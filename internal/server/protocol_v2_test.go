package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"directload/internal/core"
	"directload/internal/metrics"
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
	conn, err := net.Dial("tcp", s.Addr().String())
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

// TestPipelinedOutOfOrder proves the client matches responses by
// sequence number, not arrival order: a scripted server answers two
// pipelined gets in reverse.
func TestPipelinedOutOfOrder(t *testing.T) {
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
		// Hello.
		frame, _ := readFrame(conn)
		if req, err := decodeRequest(frame); err != nil || req.Op != OpHello {
			return
		}
		writeFrame(conn, encodeResponse(StatusOK, []byte{ProtoV2}))
		// Read both requests before answering either, then answer in
		// reverse with payloads echoing the requested keys.
		type pending struct {
			seq uint32
			key []byte
		}
		var reqs []pending
		for len(reqs) < 2 {
			seq, body, err := readFrameSeq(conn, nil)
			if err != nil {
				return
			}
			req, err := decodeRequest(body)
			if err != nil {
				return
			}
			reqs = append(reqs, pending{seq: seq, key: append([]byte(nil), req.Key...)})
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			conn.Write(appendFrameSeq(nil, reqs[i].seq, encodeResponse(StatusOK, append([]byte("val-"), reqs[i].key...))))
		}
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Two concurrent callers share the one connection; each must get the
	// value for its own key although the replies arrive reversed.
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, key := range []string{"A", "B"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			val, err := cl.GetContext(ctx, []byte(key), 1)
			if err != nil || string(val) != "val-"+key {
				t.Errorf("get %s = %q, %v (mismatched despite reversed replies)", key, val, err)
			}
		}(key)
	}
	wg.Wait()
}

// TestPipelineEndToEnd drives many concurrent callers through one
// connection of the real server and reads everything back — the
// race-detector workout for the concurrent dispatch + response writer
// path.
func TestPipelineEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	_, cl := startServerReg(t, reg)
	ctx := context.Background()
	const n = 200
	each := func(fn func(key []byte) error) {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := fn([]byte(fmt.Sprintf("pipe-%03d", i))); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
	}
	each(func(key []byte) error { return cl.PutContext(ctx, key, 1, key, false) })
	each(func(key []byte) error {
		val, err := cl.GetContext(ctx, key, 1)
		if err == nil && !bytes.Equal(val, key) {
			err = fmt.Errorf("get %s = %q", key, val)
		}
		return err
	})
	// The gauge drained once every reply was delivered. Read it from
	// the registry, not OpMetrics: a wire request would count itself.
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
	if err := b.Del(ctx, []byte("no-prior"), 1); err != nil {
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
	m, _ := cl.MetricsContext(ctx)
	if got, ok := m["server.batch.ops"].(float64); !ok || got != 3 {
		t.Fatalf("server.batch.ops = %#v", m["server.batch.ops"])
	}
}

// TestBatchSentinelAcrossWire pins errors.Is(err, core.ErrNotFound) for
// a batched delete of a missing key — the StatusError consolidation.
func TestBatchSentinelAcrossWire(t *testing.T) {
	_, cl := startServer(t)
	ctx := context.Background()
	b := cl.Batcher()
	if err := b.Del(ctx, []byte("never-existed"), 1); err != nil {
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

// TestDeadlineExpiryMidFrame verifies a context deadline fires while a
// response is outstanding (the scripted server goes silent after the
// handshake), and that the connection heals on the next call.
func TestDeadlineExpiryMidFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				frame, _ := readFrame(conn)
				if req, err := decodeRequest(frame); err != nil || req.Op != OpHello {
					return
				}
				writeFrame(conn, encodeResponse(StatusOK, []byte{ProtoV2}))
				reqs := 0
				for {
					seq, _, err := readFrameSeq(conn, nil)
					if err != nil {
						return
					}
					reqs++
					if reqs == 1 {
						continue // swallow: the client's deadline must fire
					}
					conn.Write(appendFrameSeq(nil, seq, encodeResponse(StatusOK, []byte("pong"))))
				}
			}(conn)
		}
	}()

	cl, err := Dial(ln.Addr().String())
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
	// The stream stayed synced (the late response is discarded by seq),
	// so the same connection keeps working.
	if err := cl.PingContext(context.Background()); err != nil {
		t.Fatalf("post-deadline ping: %v", err)
	}
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

// TestMaxInFlightBackpressure floods the client's connection far past
// its window with concurrent callers and verifies everything still
// completes exactly once.
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

// TestInFlightWindowBlocks proves the client's window blocks at its
// bound: with two callers more than the window, a scripted server that
// answers nothing sees exactly a window of requests; the other two reach
// the wire only as replies free their slots.
func TestInFlightWindowBlocks(t *testing.T) {
	const window, callers = defaultMaxInFlight, defaultMaxInFlight + 2
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	script := make(chan error, 1)
	go func() {
		script <- func() error {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			if _, err := readFrame(conn); err != nil {
				return err
			}
			if err := writeFrame(conn, encodeResponse(StatusOK, []byte{ProtoV2})); err != nil {
				return err
			}
			var seqs []uint32
			for len(seqs) < window {
				seq, _, err := readFrameSeq(conn, nil)
				if err != nil {
					return err
				}
				seqs = append(seqs, seq)
			}
			conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
			if seq, _, err := readFrameSeq(conn, nil); err == nil {
				return fmt.Errorf("request %d arrived with %d already unanswered", seq, window)
			}
			conn.SetReadDeadline(time.Time{})
			for seen := window; len(seqs) > 0; {
				if _, err := conn.Write(appendFrameSeq(nil, seqs[0], encodeResponse(StatusOK, nil))); err != nil {
					return err
				}
				seqs = seqs[1:]
				if seen < callers { // the freed slot lets one more through
					seq, _, err := readFrameSeq(conn, nil)
					if err != nil {
						return err
					}
					seqs = append(seqs, seq)
					seen++
				}
			}
			return nil
		}()
	}()

	cl, err := Dial(ln.Addr().String(), WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.GetContext(context.Background(), []byte("k"), 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := <-script; err != nil {
		t.Fatal(err)
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
		cl.conn.pmu.Lock()
		cl.conn.nextSeq = next
		cl.conn.pmu.Unlock()
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
