package resp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/metrics/testutil"
	"directload/internal/server"
	"directload/internal/ssd"
)

// newBackend builds an engine-backed server.Backend for one test.
func newBackend(t *testing.T, reg *metrics.Registry) *server.Backend {
	t.Helper()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(256 << 20))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 4 << 20, GCThreshold: 0.25}, Seed: 1,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	b := server.NewBackend(db)
	b.SetMetrics(reg)
	return b
}

// startRESP serves a RESP listener over b and returns a connected client.
func startRESP(t *testing.T, b *server.Backend) (*Server, *Client) {
	t.Helper()
	srv := New(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("resp Serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("resp Serve did not return after Close")
		}
	})
	// A RESP connection has no handshake to wait on: the caller may use
	// srv.Addr, which is nil until Serve has taken the listener.
	for srv.Addr() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

// startNative serves the binary-wire listener over the same backend.
func startNative(t *testing.T, b *server.Backend) *server.Client {
	t.Helper()
	s := server.NewWithBackend(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("native Serve: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("native Serve did not return after Close")
		}
	})
	cl, err := server.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func mustDo(t *testing.T, cl *Client, args ...string) Reply {
	t.Helper()
	r, err := cl.Do(args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return r
}

func TestBasicCommands(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, cl := startRESP(t, newBackend(t, nil))

	if r := mustDo(t, cl, "PING"); r.Str != "PONG" {
		t.Fatalf("PING = %+v", r)
	}
	if r := mustDo(t, cl, "PING", "hello"); string(r.Bulk) != "hello" {
		t.Fatalf("PING msg = %+v", r)
	}
	if r := mustDo(t, cl, "ECHO", "echoed"); string(r.Bulk) != "echoed" {
		t.Fatalf("ECHO = %+v", r)
	}
	if r := mustDo(t, cl, "SET", "k", "v1"); r.Str != "OK" {
		t.Fatalf("SET = %+v", r)
	}
	if r := mustDo(t, cl, "GET", "k"); string(r.Bulk) != "v1" {
		t.Fatalf("GET = %+v", r)
	}
	// Missing key: the canonical nil bulk, not an error.
	if r := mustDo(t, cl, "GET", "missing"); !r.IsNil() {
		t.Fatalf("GET missing = %+v", r)
	}
	if r := mustDo(t, cl, "EXISTS", "k", "missing"); r.Int != 1 {
		t.Fatalf("EXISTS = %+v", r)
	}
	if r := mustDo(t, cl, "DEL", "k", "missing"); r.Int != 1 {
		t.Fatalf("DEL = %+v", r)
	}
	// Deleted key reads back as nil, same as missing.
	if r := mustDo(t, cl, "GET", "k"); !r.IsNil() {
		t.Fatalf("GET deleted = %+v", r)
	}
	if r := mustDo(t, cl, "MSET", "a", "1", "b", "2"); r.Str != "OK" {
		t.Fatalf("MSET = %+v", r)
	}
	r := mustDo(t, cl, "MGET", "a", "missing", "b")
	if len(r.Array) != 3 || string(r.Array[0].Bulk) != "1" ||
		!r.Array[1].IsNil() || string(r.Array[2].Bulk) != "2" {
		t.Fatalf("MGET = %+v", r)
	}
	if r := mustDo(t, cl, "DBSIZE"); r.Int != 2 {
		t.Fatalf("DBSIZE = %+v", r)
	}
	if r := mustDo(t, cl, "COMMAND"); r.Type != '*' || len(r.Array) != 0 {
		t.Fatalf("COMMAND = %+v", r)
	}
	// Errors: unknown command and wrong arity.
	if r := mustDo(t, cl, "FLUSHDB"); r.Err == nil || !strings.Contains(r.Err.Error(), "unknown command") {
		t.Fatalf("FLUSHDB = %+v", r)
	}
	if r := mustDo(t, cl, "SET", "k"); r.Err == nil || !strings.Contains(r.Err.Error(), "wrong number of arguments") {
		t.Fatalf("SET arity = %+v", r)
	}
}

// TestSetKeyLengthLimit: one SET with a 65,536-byte key used to write a
// record no later read, GC pass or recovery could decode. It is refused
// at the door and the longest legal key is served.
func TestSetKeyLengthLimit(t *testing.T) {
	_, cl := startRESP(t, newBackend(t, nil))
	tooLong := strings.Repeat("k", server.MaxKeyLen+1)
	if r := mustDo(t, cl, "SET", tooLong, "v"); r.Err == nil || !strings.Contains(r.Err.Error(), "key exceeds") {
		t.Fatalf("SET with a %d-byte key = %+v", len(tooLong), r)
	}
	longest := tooLong[1:]
	if r := mustDo(t, cl, "SET", longest, "v"); r.Str != "OK" {
		t.Fatalf("SET with a %d-byte key = %+v", len(longest), r)
	}
	if r := mustDo(t, cl, "GET", longest); string(r.Bulk) != "v" {
		t.Fatalf("GET of the longest key = %+v", r)
	}
	// A message is not a key: PING and ECHO answer with it whatever its length.
	for _, cmd := range []string{"PING", "ECHO"} {
		if r := mustDo(t, cl, cmd, tooLong); r.Err != nil || string(r.Bulk) != tooLong {
			t.Fatalf("%s of a %d-byte message = err %v, %d bytes", cmd, len(tooLong), r.Err, len(r.Bulk))
		}
	}
}

// TestSelectMapsToVersion pins the database-index mapping: SELECT n
// addresses engine version n+1, so db 0 is the conventional version 1.
func TestSelectMapsToVersion(t *testing.T) {
	b := newBackend(t, nil)
	_, cl := startRESP(t, b)
	ctx := context.Background()

	mustDo(t, cl, "SET", "k", "db0")
	if r := mustDo(t, cl, "SELECT", "1"); r.Str != "OK" {
		t.Fatalf("SELECT = %+v", r)
	}
	mustDo(t, cl, "SET", "k", "db1")
	// Engine view: db 0 wrote version 1, db 1 wrote version 2.
	if v, err := b.Get(ctx, []byte("k"), 1); err != nil || string(v) != "db0" {
		t.Fatalf("version 1 = %q, %v", v, err)
	}
	if v, err := b.Get(ctx, []byte("k"), 2); err != nil || string(v) != "db1" {
		t.Fatalf("version 2 = %q, %v", v, err)
	}
	if r := mustDo(t, cl, "GET", "k"); string(r.Bulk) != "db1" {
		t.Fatalf("GET after SELECT = %+v", r)
	}
	if r := mustDo(t, cl, "SELECT", "0"); r.Str != "OK" {
		t.Fatalf("SELECT 0 = %+v", r)
	}
	if r := mustDo(t, cl, "GET", "k"); string(r.Bulk) != "db0" {
		t.Fatalf("GET after SELECT 0 = %+v", r)
	}
	if r := mustDo(t, cl, "SELECT", "nope"); r.Err == nil {
		t.Fatalf("SELECT nope = %+v", r)
	}
}

// TestInteropBothWays runs both front doors over one Backend and checks
// each protocol reads the other's writes — the "one engine, two
// protocols" property the Backend extraction exists for.
func TestInteropBothWays(t *testing.T) {
	b := newBackend(t, nil)
	_, rcl := startRESP(t, b)
	ncl := startNative(t, b)
	ctx := context.Background()

	// Native write → RESP read (db 0 is version 1).
	if err := ncl.PutContext(ctx, []byte("native-key"), 1, []byte("from-native"), false); err != nil {
		t.Fatal(err)
	}
	if r := mustDo(t, rcl, "GET", "native-key"); string(r.Bulk) != "from-native" {
		t.Fatalf("RESP read of native write = %+v", r)
	}

	// RESP write → native read.
	mustDo(t, rcl, "SET", "resp-key", "from-resp")
	if v, err := ncl.GetContext(ctx, []byte("resp-key"), 1); err != nil || string(v) != "from-resp" {
		t.Fatalf("native read of RESP write = %q, %v", v, err)
	}

	// RESP delete observed natively, and vice versa.
	mustDo(t, rcl, "DEL", "native-key")
	if _, err := ncl.GetContext(ctx, []byte("native-key"), 1); !errors.Is(err, core.ErrDeleted) {
		t.Fatalf("native read of RESP delete = %v", err)
	}
	if err := ncl.DelContext(ctx, []byte("resp-key"), 1); err != nil {
		t.Fatal(err)
	}
	if r := mustDo(t, rcl, "GET", "resp-key"); !r.IsNil() {
		t.Fatalf("RESP read of native delete = %+v", r)
	}

	// Native dedup across versions is visible through SELECT.
	if err := ncl.PutContext(ctx, []byte("d"), 1, []byte("base"), false); err != nil {
		t.Fatal(err)
	}
	if err := ncl.PutContext(ctx, []byte("d"), 2, nil, true); err != nil {
		t.Fatal(err)
	}
	mustDo(t, rcl, "SELECT", "1")
	if r := mustDo(t, rcl, "GET", "d"); string(r.Bulk) != "base" {
		t.Fatalf("RESP read of dedup entry = %+v", r)
	}
}

// TestMultiExecCommitsOneBatch checks EXEC's mutations land as ONE
// OpBatch through the shared Backend — same metrics as a native batch —
// and that replies reconstruct per command.
func TestMultiExecCommitsOneBatch(t *testing.T) {
	reg := metrics.NewRegistry()
	b := newBackend(t, reg)
	_, cl := startRESP(t, b)
	ctx := context.Background()

	mustDo(t, cl, "SET", "pre", "existing")

	if r := mustDo(t, cl, "MULTI"); r.Str != "OK" {
		t.Fatalf("MULTI = %+v", r)
	}
	for _, cmd := range [][]string{
		{"SET", "t1", "v1"},
		{"MSET", "t2", "v2", "t3", "v3"},
		{"DEL", "pre", "never-there"},
		{"GET", "t1"},
	} {
		if r := mustDo(t, cl, cmd...); r.Str != "QUEUED" {
			t.Fatalf("%v = %+v", cmd, r)
		}
	}
	// Nothing applied while queued.
	if _, err := b.Get(ctx, []byte("t1"), 1); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("t1 visible before EXEC: %v", err)
	}
	r := mustDo(t, cl, "EXEC")
	if r.Type != '*' || len(r.Array) != 4 {
		t.Fatalf("EXEC = %+v", r)
	}
	if r.Array[0].Str != "OK" || r.Array[1].Str != "OK" {
		t.Fatalf("EXEC SET/MSET replies = %+v", r.Array)
	}
	if r.Array[2].Int != 1 {
		t.Fatalf("EXEC DEL reply = %+v", r.Array[2])
	}
	// The read observes the transaction's own write.
	if string(r.Array[3].Bulk) != "v1" {
		t.Fatalf("EXEC GET reply = %+v", r.Array[3])
	}
	for key, want := range map[string]string{"t1": "v1", "t2": "v2", "t3": "v3"} {
		if v, err := b.Get(ctx, []byte(key), 1); err != nil || string(v) != want {
			t.Fatalf("%s = %q, %v", key, v, err)
		}
	}
	// One batch frame carried all four mutations.
	snap := reg.Snapshot()
	if got := snap["server.req.batch.latency_us"].(metrics.Snapshot).Count; got != 1 {
		t.Fatalf("server.req.batch.latency_us count = %v, want 1", got)
	}
	if got := snap["server.batch.ops"].(int64); got != 5 {
		t.Fatalf("server.batch.ops = %v, want 5", got)
	}
}

// TestFailedExecLeavesNoPartialWrites pins EXEC atomicity for both
// abort paths: a queue-time error (unknown command) and an EXEC-time
// validation failure (empty key). Neither may leave any of the
// transaction's writes behind.
func TestFailedExecLeavesNoPartialWrites(t *testing.T) {
	b := newBackend(t, nil)
	_, cl := startRESP(t, b)
	ctx := context.Background()

	// Queue-time error poisons the transaction.
	mustDo(t, cl, "MULTI")
	if r := mustDo(t, cl, "SET", "q1", "v"); r.Str != "QUEUED" {
		t.Fatalf("SET = %+v", r)
	}
	if r := mustDo(t, cl, "NOSUCHCMD"); r.Err == nil {
		t.Fatalf("NOSUCHCMD = %+v", r)
	}
	if r := mustDo(t, cl, "SET", "q2", "v"); r.Str != "QUEUED" {
		t.Fatalf("SET after error = %+v", r)
	}
	r := mustDo(t, cl, "EXEC")
	var re *ReplyError
	if r.Err == nil || !errors.As(r.Err, &re) || re.Class != ClassExecAbort {
		t.Fatalf("EXEC = %+v", r)
	}
	for _, key := range []string{"q1", "q2"} {
		if _, err := b.Get(ctx, []byte(key), 1); !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("%s written by aborted EXEC: %v", key, err)
		}
	}

	// EXEC-time validation failure: the empty key passes queue-time arity
	// checks but fails AtomicBatch validation, so the whole batch — the
	// valid first write included — must be rejected with the engine
	// untouched.
	mustDo(t, cl, "MULTI")
	mustDo(t, cl, "SET", "v1-key", "v")
	mustDo(t, cl, "SET", "", "v")
	r = mustDo(t, cl, "EXEC")
	if r.Err == nil || !errors.As(r.Err, &re) || re.Class != ClassExecAbort {
		t.Fatalf("EXEC with empty key = %+v", r)
	}
	if _, err := b.Get(ctx, []byte("v1-key"), 1); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("v1-key written by rejected EXEC: %v", err)
	}

	// The connection stays usable after both aborts.
	if r := mustDo(t, cl, "SET", "after", "ok"); r.Str != "OK" {
		t.Fatalf("SET after aborts = %+v", r)
	}
}

func TestDiscardAndMultiErrors(t *testing.T) {
	b := newBackend(t, nil)
	_, cl := startRESP(t, b)
	ctx := context.Background()

	mustDo(t, cl, "MULTI")
	mustDo(t, cl, "SET", "dk", "v")
	if r := mustDo(t, cl, "MULTI"); r.Err == nil {
		t.Fatalf("nested MULTI = %+v", r)
	}
	if r := mustDo(t, cl, "DISCARD"); r.Str != "OK" {
		t.Fatalf("DISCARD = %+v", r)
	}
	if _, err := b.Get(ctx, []byte("dk"), 1); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("dk written despite DISCARD: %v", err)
	}
	if r := mustDo(t, cl, "EXEC"); r.Err == nil || !strings.Contains(r.Err.Error(), "EXEC without MULTI") {
		t.Fatalf("EXEC = %+v", r)
	}
	if r := mustDo(t, cl, "DISCARD"); r.Err == nil || !strings.Contains(r.Err.Error(), "DISCARD without MULTI") {
		t.Fatalf("DISCARD = %+v", r)
	}
	// SELECT may not move the version mid-transaction.
	mustDo(t, cl, "MULTI")
	if r := mustDo(t, cl, "SELECT", "3"); r.Err == nil {
		t.Fatalf("SELECT in MULTI = %+v", r)
	}
	mustDo(t, cl, "DISCARD")
}

// TestPipelinedOrdering fires a burst of pipelined RESP commands while
// the native listener hammers the same backend, and checks RESP replies
// come back in submission order with the right values.
func TestPipelinedOrdering(t *testing.T) {
	b := newBackend(t, nil)
	_, rcl := startRESP(t, b)

	s := server.NewWithBackend(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	ncl, err := server.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ncl.Close() })

	// Concurrent native writes to disjoint keys keep the backend busy.
	ctx := context.Background()
	stop := make(chan struct{})
	nativeDone := make(chan error, 1)
	go func() {
		defer close(nativeDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := []byte(fmt.Sprintf("native-%03d", i%100))
			if err := ncl.PutContext(ctx, key, 1, key, false); err != nil {
				nativeDone <- err
				return
			}
		}
	}()

	const n = 200
	for i := 0; i < n; i++ {
		if err := rcl.SendStrings("SET", fmt.Sprintf("p%03d", i), fmt.Sprintf("val-%03d", i)); err != nil {
			t.Fatal(err)
		}
		if err := rcl.SendStrings("GET", fmt.Sprintf("p%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rcl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		set, err := rcl.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if set.Str != "OK" {
			t.Fatalf("pipelined SET %d = %+v", i, set)
		}
		get, err := rcl.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("val-%03d", i); string(get.Bulk) != want {
			t.Fatalf("pipelined GET %d = %q, want %q", i, get.Bulk, want)
		}
	}
	close(stop)
	if err := <-nativeDone; err != nil {
		t.Fatal(err)
	}
}

// TestErrorMappingMatchesStatusError cross-checks the two wire error
// vocabularies: a RESP ReplyError and a native StatusError carrying the
// same engine condition must answer errors.Is identically.
func TestErrorMappingMatchesStatusError(t *testing.T) {
	cases := []struct {
		name   string
		resp   *ReplyError
		native *server.StatusError
	}{
		{"not found", &ReplyError{Class: ClassNotFound, Msg: "x"}, &server.StatusError{Code: server.StatusNotFound, Msg: "x"}},
		{"deleted", &ReplyError{Class: ClassDeleted, Msg: "x"}, &server.StatusError{Code: server.StatusDeleted, Msg: "x"}},
		{"failed", &ReplyError{Class: ClassErr, Msg: "x"}, &server.StatusError{Code: server.StatusFailed, Msg: "x"}},
	}
	sentinels := []error{core.ErrNotFound, core.ErrDeleted}
	for _, tc := range cases {
		for _, sentinel := range sentinels {
			if got, want := errors.Is(tc.resp, sentinel), errors.Is(tc.native, sentinel); got != want {
				t.Errorf("%s: errors.Is(resp, %v) = %v, native = %v", tc.name, sentinel, got, want)
			}
		}
	}
	// Forward and reverse mapping compose: classify an engine error,
	// parse the class back, and errors.Is still holds.
	for _, sentinel := range sentinels {
		wrapped := fmt.Errorf("engine: %w", sentinel)
		re := parseErrorLine(classify(wrapped) + " " + wrapped.Error())
		if !errors.Is(re, sentinel) {
			t.Errorf("classify/parse round trip lost %v (class %q)", sentinel, re.Class)
		}
	}
}

func TestInfoAndInline(t *testing.T) {
	reg := metrics.NewRegistry()
	b := newBackend(t, reg)
	srv, cl := startRESP(t, b)
	srv.SetNode("test-node")

	mustDo(t, cl, "SET", "ik", "iv")
	r := mustDo(t, cl, "INFO")
	info := string(r.Bulk)
	for _, want := range []string{
		"# Server", "node:test-node", "protocol:resp2",
		"# Clients", "connected_clients:",
		"# Stats", "server_req_put_latency_us_count:1",
		"# Keyspace", "db0:keys=1,engine_version=1",
	} {
		if !strings.Contains(info, want) {
			t.Errorf("INFO missing %q:\n%s", want, info)
		}
	}
	if r := mustDo(t, cl, "INFO", "keyspace"); strings.Contains(string(r.Bulk), "# Stats") {
		t.Fatalf("INFO keyspace included Stats:\n%s", r.Bulk)
	}

	// Inline commands (the telnet form) share the dispatch path.
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("GET ik\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := nc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(buf[:n]); got != "$2\r\niv\r\n" {
		t.Fatalf("inline GET = %q", got)
	}
}

func TestProtocolErrorTearsDown(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, _ := startRESP(t, newBackend(t, nil))
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("*not-a-number\r\n")); err != nil {
		t.Fatal(err)
	}
	reply, err := bufReadAll(nc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(reply, []byte("-ERR ")) {
		t.Fatalf("reply = %q, want -ERR prefix", reply)
	}
}

// bufReadAll drains a connection until EOF (the server closing it).
func bufReadAll(nc net.Conn) ([]byte, error) {
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	var out []byte
	buf := make([]byte, 256)
	for {
		n, err := nc.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			if len(out) > 0 {
				return out, nil
			}
			return nil, err
		}
	}
}

// TestGetBurstsShareNoBytes pipelines bursts of GETs — values of uneven
// size, missing keys among them, an MGET between bursts — over one
// connection, round after round. The values land in the connection's
// scratch buffer, which the next command reuses, so a reply written after
// it was overwritten comes back as another key's bytes.
func TestGetBurstsShareNoBytes(t *testing.T) {
	_, cl := startRESP(t, newBackend(t, nil))
	const keys = 40
	value := func(k, round int) string {
		return strings.Repeat(fmt.Sprintf("<%02d/%d>", k, round), 1+(k*37+round*11)%300)
	}
	for round := 0; round < 30; round++ {
		for k := 0; k < keys; k++ {
			mustDo(t, cl, "SET", fmt.Sprintf("burst-%02d", k), value(k, round))
		}
		for k := 0; k < keys; k++ {
			if err := cl.SendStrings("GET", fmt.Sprintf("burst-%02d", k)); err != nil {
				t.Fatal(err)
			}
			if k%8 == 7 {
				if err := cl.SendStrings("GET", "no-such-key"); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := cl.SendStrings("MGET", "burst-00", "no-such-key", "burst-39"); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < keys; k++ {
			if r, err := cl.Receive(); err != nil || string(r.Bulk) != value(k, round) {
				t.Fatalf("round %d: GET burst-%02d = %d bytes, %v; want the %d stored", round, k, len(r.Bulk), err, len(value(k, round)))
			}
			if k%8 == 7 {
				if r, err := cl.Receive(); err != nil || !r.IsNil() {
					t.Fatalf("round %d: GET of a missing key = %+v, %v", round, r, err)
				}
			}
		}
		r, err := cl.Receive()
		if err != nil || len(r.Array) != 3 || string(r.Array[0].Bulk) != value(0, round) ||
			!r.Array[1].IsNil() || string(r.Array[2].Bulk) != value(39, round) {
			t.Fatalf("round %d: MGET = %+v, %v", round, r, err)
		}
	}
}

// TestEmptyValueAnswersNil: an empty value has always been answered with
// the nil bulk here — single GET, a pipelined burst of GETs and MGET alike,
// whatever the connection's scratch buffers hold from earlier replies.
func TestEmptyValueAnswersNil(t *testing.T) {
	_, cl := startRESP(t, newBackend(t, nil))
	mustDo(t, cl, "SET", "full", "some value")
	mustDo(t, cl, "SET", "empty", "")
	for round := 0; round < 2; round++ {
		if r := mustDo(t, cl, "GET", "empty"); !r.IsNil() {
			t.Fatalf("GET of an empty value = %+v, want nil", r)
		}
		if r := mustDo(t, cl, "GET", "full"); string(r.Bulk) != "some value" {
			t.Fatalf("GET full = %+v", r)
		}
		for _, key := range []string{"full", "empty", "full", "empty"} {
			if err := cl.SendStrings("GET", key); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"full", "empty", "full", "empty"} {
			r, err := cl.Receive()
			if err != nil || r.IsNil() != (key == "empty") || (key == "full" && string(r.Bulk) != "some value") {
				t.Fatalf("pipelined GET %s = %+v, %v", key, r, err)
			}
		}
		r := mustDo(t, cl, "MGET", "empty", "full", "empty")
		if len(r.Array) != 3 || !r.Array[0].IsNil() || string(r.Array[1].Bulk) != "some value" || !r.Array[2].IsNil() {
			t.Fatalf("MGET = %+v", r)
		}
	}
}
