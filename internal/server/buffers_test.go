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
// stepwise read on the way in and the writev on the way out).
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

// TestWriterKeepsNoBigReply: the writer goroutine's coalescing buffer does
// not grow with the replies that pass through it. A body that is a write's
// worth on its own goes out from where it lies, behind whatever had
// accumulated, and the bytes on the wire are the frames in order either way.
func TestWriterKeepsNoBigReply(t *testing.T) {
	client, server := net.Pipe()
	bodies := make(freeList, 8)
	w := newRespWriter(server, bodies)
	respCh := make(chan seqResp, 8)
	done := make(chan struct{})
	go func() { defer close(done); w.run(respCh) }()

	sizes := []int{20, 8 << 20, 20 << 10, 20, maxCoalesce - 8, maxCoalesce - 7, 1 << 20, 5}
	go func() {
		for i, size := range sizes {
			body := bytes.Repeat([]byte{byte('a' + i)}, size)
			respCh <- seqResp{seq: uint32(i + 1), body: body}
		}
		close(respCh)
	}()
	br := bufio.NewReader(client)
	for i, size := range sizes {
		seq, body, err := readFrameSeq(br, nil)
		if err != nil || seq != uint32(i+1) || !bytes.Equal(body, bytes.Repeat([]byte{byte('a' + i)}, size)) {
			t.Fatalf("frame %d: seq %d, %d bytes, %v; want seq %d and %d bytes of %q", i, seq, len(body), err, i+1, size, 'a'+i)
		}
	}
	<-done
	if cap(w.buf) > 2*maxCoalesce {
		t.Fatalf("after an 8 MB reply the writer holds a %d-byte buffer, want at most %d", cap(w.buf), 2*maxCoalesce)
	}
	// Every body came back to the free list but the one too big to keep.
	close(bodies)
	kept := 0
	for b := range bodies {
		if cap(b) > aof.KeepBuffer {
			t.Fatalf("a %d-byte body was kept for reuse, limit %d", cap(b), aof.KeepBuffer)
		}
		kept++
	}
	if kept != len(sizes)-1 {
		t.Fatalf("%d of %d bodies were recycled, want all but the 8 MB one", kept, len(sizes))
	}
}

// TestRecycledBuffersAreNeverShared drives one connection the way a
// pipelining client does — 64 GETs of distinct keys and a 64-entry OpBatch
// in flight together, 2,000 rounds — and checks every reply byte for byte.
// Request frames and reply bodies are recycled per connection, so a buffer
// handed back too early, or to two requests at once, shows up here as a
// wrong byte (and under -race as a report).
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
