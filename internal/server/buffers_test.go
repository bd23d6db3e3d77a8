package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/metrics/testutil"
)

// helloConn dials s by hand and completes the hello exchange.
func helloConn(t *testing.T, s *Server) net.Conn {
	t.Helper()
	conn := rawFirstFrame(t, s, reqBody(t, request{Op: OpHello, Version: ProtoV2}))
	if _, err := readFrame(conn); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestDeclaredFrameAllocatesAsItArrives: a frame's length prefix is only
// what the peer says. Declaring the largest frame there is and sending
// nothing makes the handler allocate one step of it, not 64 MB; a real
// 8 MB value still goes in and comes back byte for byte (through the
// stepwise read on the way in).
func TestDeclaredFrameAllocatesAsItArrives(t *testing.T) {
	s, cl := startServer(t)
	conn := helloConn(t, s)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	// The handler is now inside the body read; closing ends it.
	time.Sleep(50 * time.Millisecond)
	conn.Close()
	for deadline := time.Now().Add(5 * time.Second); s.backend.met.conns.Load() > 1; {
		if time.Now().After(deadline) {
			t.Fatal("handler did not return after its peer closed")
		}
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&m1)
	// (The race detector's instrumentation allocates beside the program.)
	grew := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("a declared %d-byte frame with no body: %d bytes allocated", maxFrame, grew)
	if grew > 2<<20 && !testutil.RaceEnabled {
		t.Fatalf("a declared %d-byte frame with no body made the process allocate %d bytes", maxFrame, grew)
	}
	// The same for the unsequenced first frame.
	runtime.ReadMemStats(&m0)
	if _, err := readFrame(bytes.NewReader(hdr[:4])); err != io.EOF {
		t.Fatalf("readFrame of a bare length prefix: %v, want io.EOF", err)
	}
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 2<<20 && !testutil.RaceEnabled {
		t.Fatalf("readFrame allocated %d bytes for a declared %d-byte frame with no body", grew, maxFrame)
	}

	ctx := context.Background()
	big := make([]byte, 8<<20)
	for i := range big {
		big[i] = byte(i * 31 >> 3)
	}
	if err := cl.PutContext(ctx, []byte("big"), 1, big, false); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetContext(ctx, []byte("big"), 1)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("8 MB value came back as %d bytes, %v", len(got), err)
	}
}

// TestConnKeepsNoBigBuffer: a connection reuses its request frame and
// reply buffer, but not once either has grown past aof.KeepBuffer. An 8 MB
// PUT and the GET of it go through; the PING after them leaves the
// connection holding small buffers only.
func TestConnKeepsNoBigBuffer(t *testing.T) {
	s, _ := startServer(t)
	client, server := net.Pipe()
	defer client.Close()
	client.SetDeadline(time.Now().Add(30 * time.Second))
	c := &serverConn{s: s, nc: server, br: bufio.NewReader(server), parked: make(chan struct{}, defaultMaxInFlight)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.serve()
	}()
	big := bytes.Repeat([]byte("0123456789abcdef"), 512<<10)
	br := bufio.NewReader(client)
	for i, req := range []request{
		{Op: OpPut, Version: 1, Key: []byte("big"), Value: big},
		{Op: OpGet, Version: 1, Key: []byte("big")},
		{Op: OpPing},
	} {
		if _, err := client.Write(appendFrameSeq(nil, uint32(i+1), reqBody(t, req))); err != nil {
			t.Fatal(err)
		}
		seq, body, err := readFrameSeq(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		status, payload, err := decodeResponse(body)
		if err != nil || seq != uint32(i+1) || status != StatusOK || (req.Op == OpGet && !bytes.Equal(payload, big)) {
			t.Fatalf("request %d: seq %d, status %d, %d bytes, %v", i+1, seq, status, len(payload), err)
		}
	}
	client.Close()
	<-done
	for name, buf := range map[string][]byte{"request frame": c.frame, "reply buffer": c.out} {
		if cap(buf) == 0 || cap(buf) > aof.KeepBuffer {
			t.Fatalf("after an 8 MB PUT, its GET and a PING the connection keeps a %d-byte %s, want 1..%d", cap(buf), name, aof.KeepBuffer)
		}
	}
}

// TestRecycledBuffersAreNeverShared drives one connection the way a
// pipelining client does — 64 GETs of distinct keys and a 64-entry OpBatch
// in flight together, 2,000 rounds — and checks every reply byte for byte.
// A connection reuses its request frame and reply buffer from request to
// request, so a buffer reused too early, or by two requests at once, shows
// up here as a wrong byte (and under -race as a report).
func TestRecycledBuffersAreNeverShared(t *testing.T) {
	s, _ := startServer(t)
	conn := helloConn(t, s)
	conn.SetDeadline(time.Now().Add(5 * time.Minute))
	const keys, rounds = 64, 2000
	key := func(k int) []byte { return []byte(fmt.Sprintf("key-%02d", k)) }
	// value is what round gen's batch stores under key k: 16-1200 bytes
	// that name both at every offset.
	value := func(k, gen int) []byte {
		val := make([]byte, 16+(k*197+gen*61)%1185)
		for i := range val {
			val[i] = byte(k*7 + gen*13 + i)
		}
		return val
	}
	batch := func(gen int) []byte {
		ops := make([]BatchOp, keys)
		for k := range ops {
			ops[k] = BatchOp{Op: OpPut, Version: uint64(gen%2 + 1), Key: key(k), Value: value(k, gen)}
		}
		packed, err := encodeBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		return reqBody(t, request{Op: OpBatch, Version: keys, Value: packed})
	}
	br := bufio.NewReader(conn)
	// Round 0 only stores; round r reads what round r-1 stored while it
	// stores generation r under the other version.
	var wire []byte
	for r := 0; r <= rounds; r++ {
		wire = wire[:0]
		for k := 0; k < keys && r > 0; k++ {
			if k == keys/2 {
				wire = appendFrameSeq(wire, 0, batch(r))
			}
			wire = appendFrameSeq(wire, uint32(k+1), reqBody(t, request{Op: OpGet, Version: uint64((r-1)%2 + 1), Key: key(k)}))
		}
		if r == 0 {
			wire = appendFrameSeq(wire, 0, batch(r))
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		replies := 1
		if r > 0 {
			replies += keys
		}
		for ; replies > 0; replies-- {
			seq, body, err := readFrameSeq(br, nil)
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			status, payload, err := decodeResponse(body)
			if err != nil || status != StatusOK {
				t.Fatalf("round %d seq %d: status %d, %v: %q", r, seq, status, err, payload)
			}
			if seq == 0 {
				statuses, err := decodeBatchReply(payload)
				if err != nil || len(statuses) != keys {
					t.Fatalf("round %d: batch reply of %d statuses, %v", r, len(statuses), err)
				}
				for k, st := range statuses {
					if st.status != StatusOK {
						t.Fatalf("round %d: sub-op %d failed: %q", r, k, st.msg)
					}
				}
				continue
			}
			if want := value(int(seq)-1, r-1); !bytes.Equal(payload, want) {
				t.Fatalf("round %d: GET of key %d returned %d bytes that are not the %d stored", r, seq-1, len(payload), len(want))
			}
		}
	}
}
