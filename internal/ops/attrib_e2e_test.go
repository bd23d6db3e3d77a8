package ops

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/resp"
	"directload/internal/server"
	"directload/internal/ssd"
)

// TestAttributionE2EBothFrontDoors is the acceptance check for per-op
// attribution: one engine, one Backend, a native v2 listener AND a RESP
// listener on top of it, real traffic through both wires, and
// /debug/attrib reporting alloc bytes/op for the opcodes each front
// door exercised — in one shared table.
func TestAttributionE2EBothFrontDoors(t *testing.T) {
	dev, err := ssd.NewDevice(ssd.DefaultConfig(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 4 << 20, GCThreshold: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	srv := server.New(db)
	srv.SetMetrics(metrics.NewRegistry())
	srv.SetAttribution(1) // measure every request: deterministic counts
	backend := srv.Backend()

	nativeLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(nativeLn)
	defer srv.Close()

	respSrv := resp.New(backend)
	respLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go respSrv.Serve(respLn)
	defer respSrv.Close()

	opsSrv := httptest.NewServer(NewMux(Config{Attrib: backend.Attribution}))
	defer opsSrv.Close()

	// Native v2 traffic: puts.
	cl, err := server.Dial(nativeLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	// A get or a put allocates next to nothing in the steady state, and the
	// runtime counts small objects a span at a time. 40 KB values make the
	// two allocations that must happen large objects, which it counts at
	// once: a device block's buffer on its first program, and the scratch
	// buffer of the RESP connection's first GET.
	val := make([]byte, 40<<10)
	for i := 0; i < 16; i++ {
		key := []byte{'k', byte('0' + i%10), byte('a' + i/10)}
		if err := cl.PutContext(ctx, key, 1, val, false); err != nil {
			t.Fatal(err)
		}
	}

	// RESP traffic: gets of the same keys through the other front door.
	rc, err := net.Dial("tcp", respLn.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	br := bufio.NewReader(rc)
	for i := 0; i < 16; i++ {
		key := []byte{'k', byte('0' + i%10), byte('a' + i/10)}
		if _, err := rc.Write(resp.AppendCommand(nil, []byte("GET"), key)); err != nil {
			t.Fatal(err)
		}
		got, err := readBulk(br)
		if err != nil {
			t.Fatalf("RESP GET %q: %v", key, err)
		}
		if len(got) != len(val) {
			t.Fatalf("RESP GET %q = %d bytes, want the native put's %d", key, len(got), len(val))
		}
	}

	// One table, both wires.
	code, body, _ := get(t, opsSrv, "/debug/attrib?format=json")
	if code != 200 {
		t.Fatalf("/debug/attrib = %d: %s", code, body)
	}
	var snap metrics.AttribSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad json: %v\n%s", err, body)
	}
	byOp := make(map[string]metrics.AttribEntry)
	for _, e := range snap.Entries {
		byOp[e.Op] = e
	}
	putE, ok := byOp["put"]
	if !ok || putE.Samples < 16 {
		t.Fatalf("native put traffic missing from table: %+v", snap.Entries)
	}
	getE, ok := byOp["get"]
	if !ok || getE.Samples < 16 {
		t.Fatalf("RESP get traffic missing from table: %+v", snap.Entries)
	}
	if putE.AllocBytesPerOp <= 0 || getE.AllocBytesPerOp <= 0 {
		t.Fatalf("alloc bytes/op not attributed: put=%+v get=%+v", putE, getE)
	}
	// The text form renders the same table.
	code, text, _ := get(t, opsSrv, "/debug/attrib")
	if code != 200 || !strings.Contains(text, "put") || !strings.Contains(text, "get") {
		t.Fatalf("text form = %d:\n%s", code, text)
	}
}

// readBulk reads one RESP bulk-string reply; any other reply, the nil
// bulk included, is an error.
func readBulk(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(line, "$"), "\r\n"))
	if err != nil || line[0] != '$' || n < 0 {
		return nil, fmt.Errorf("reply %q is not a bulk string", line)
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, err
	}
	return buf[:n], nil
}
