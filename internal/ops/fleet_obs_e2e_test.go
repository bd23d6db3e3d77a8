package ops

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/fleet"
	"directload/internal/metrics"
	"directload/internal/server"
	"directload/internal/ssd"
)

// obsClock is a controllable clock shared by the SLO tracker and the
// recorder, so sliding windows advance when the test says so.
type obsClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *obsClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *obsClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// obsNode is one restartable storage node with its own metrics registry
// and its own operator HTTP endpoint — three separate processes in
// miniature, which is what makes the trace merge meaningful.
type obsNode struct {
	t    *testing.T
	name string
	addr string
	db   *core.DB
	srv  *server.Server
	reg  *metrics.Registry
	ops  *Server
}

func startObsNode(t *testing.T, name string) *obsNode {
	t.Helper()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 4 << 20, GCThreshold: 0.25}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := &obsNode{t: t, name: name, db: db, reg: metrics.NewRegistry()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = ln.Addr().String()
	n.serve(ln)
	n.ops, err = Listen("127.0.0.1:0", Config{Registry: n.reg, Node: name})
	if err != nil {
		t.Fatal(err)
	}
	go n.ops.Serve()
	t.Cleanup(func() {
		n.stop()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		n.ops.Shutdown(ctx)
		cancel()
		db.Close()
	})
	return n
}

func (n *obsNode) serve(ln net.Listener) {
	s := server.New(n.db)
	s.SetLogf(nil)
	s.SetMetrics(n.reg)
	go s.Serve(ln)
	for s.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	n.srv = s
}

// stop kills the storage port; the engine and the operator endpoint
// stay up, like a wedged server whose sidecar still answers.
func (n *obsNode) stop() {
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
}

func (n *obsNode) restart() {
	n.t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", n.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		n.t.Fatalf("rebind %s: %v", n.addr, err)
	}
	n.serve(ln)
}

// eventSeq returns the sequence number of the first event of the given
// type, or 0 when absent.
func eventSeq(evs []metrics.Event, typ metrics.EventType) uint64 {
	for _, e := range evs {
		if e.Type == typ {
			return e.Seq
		}
	}
	return 0
}

// TestFleetObservabilityE2E is the acceptance run for the observability
// spine: a 3-node fleet takes quorum writes and hedged reads through an
// injected outage, and the test asserts what an operator would see —
// /slo burning during the outage and recovering after, /events telling
// the breaker/handoff story in order, one trace id merging spans from
// several nodes, and the recorder capturing the dip as JSONL snapshots.
func TestFleetObservabilityE2E(t *testing.T) {
	clock := &obsClock{t: time.Now()}
	n1 := startObsNode(t, "dc1-n1")
	n2 := startObsNode(t, "dc1-n2")
	n3 := startObsNode(t, "dc1-n3")

	routerReg := metrics.NewRegistry()
	events := metrics.NewEventLog(0)
	slo := metrics.NewSLO(metrics.SLOConfig{
		Name:   "fleet.read",
		Target: 0.006, // the paper's 0.6 % read-miss objective
		Events: events,
		Now:    clock.now,
	})
	slo.Register(routerReg)

	f, err := fleet.New(fleet.Config{
		Groups:           [][]string{{n1.addr, n2.addr, n3.addr}},
		Replicas:         3,
		WriteQuorum:      2,
		WriteRetries:     1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		ProbeInterval:    -1,
		Metrics:          routerReg,
		SLO:              slo,
		Events:           events,
		OpsAddrs:         []string{n1.ops.Addr(), n2.ops.Addr(), n3.ops.Addr()},
		DialOpts: []server.DialOption{
			server.WithTimeout(2 * time.Second),
			server.WithMetrics(routerReg),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// The router's own operator endpoint: /slo and /events below are
	// asserted through HTTP, the way an operator would read them.
	routerSrv := httptest.NewServer(NewMux(Config{
		Registry: routerReg,
		Node:     "fleet-router",
		SLOs:     []*metrics.SLO{slo},
		Events:   events,
		Fleet:    f.Status,
	}))
	defer routerSrv.Close()

	// The recorder writes to $RECORD_ARTIFACT when set (CI uploads it)
	// and to a scratch file otherwise.
	artifact := os.Getenv("RECORD_ARTIFACT")
	if artifact == "" {
		artifact = filepath.Join(t.TempDir(), "fleet_obs.jsonl")
	}
	rec, err := metrics.NewRecorder(metrics.RecorderConfig{
		Path:             artifact,
		Registry:         routerReg,
		SLOs:             []*metrics.SLO{slo},
		Events:           events,
		RateCounters:     []string{"fleet.read.requests"},
		LatencyHistogram: "fleet.read.latency_us",
		Now:              clock.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	ctx := context.Background()

	// --- phase 1: healthy fleet, one traced write+read ---------------
	tctx, endSpan := routerReg.StartSpan(ctx, "e2e.fleet")
	sc, ok := metrics.SpanFromContext(tctx)
	if !ok {
		t.Fatal("no span in traced context")
	}
	entries := make([]fleet.Entry, 8)
	for i := range entries {
		entries[i] = fleet.Entry{
			Key:   []byte{'k', byte('0' + i)},
			Value: []byte{'v', byte('0' + i)},
		}
	}
	if err := f.PublishVersion(tctx, 1, entries); err != nil {
		t.Fatalf("publish v1: %v", err)
	}
	if val, err := f.Get(tctx, []byte("k3"), 1); err != nil || string(val) != "v3" {
		t.Fatalf("healthy Get = %q, %v", val, err)
	}
	endSpan(nil)
	clock.advance(time.Second)
	healthy, err := rec.SampleNow()
	if err != nil {
		t.Fatalf("sample healthy: %v", err)
	}
	if healthy.ThroughputOps <= 0 {
		t.Fatalf("healthy throughput = %v, want > 0", healthy.ThroughputOps)
	}

	// --- merged cross-node trace -------------------------------------
	merged, err := f.CollectTrace(ctx, sc.TraceID)
	if err != nil {
		t.Fatalf("CollectTrace: %v", err)
	}
	if got := merged.NodeCount(); got < 2 {
		t.Fatalf("merged trace covers %d node(s), want >= 2", got)
	}
	byNode := make(map[string]int)
	for _, s := range merged.Spans {
		byNode[s.Node]++
	}
	if byNode["fleet-router"] == 0 {
		t.Fatalf("merged trace missing router spans: %v", byNode)
	}
	if byNode["dc1-n1"]+byNode["dc1-n2"]+byNode["dc1-n3"] == 0 {
		t.Fatalf("merged trace missing storage-node spans: %v", byNode)
	}
	var timeline bytes.Buffer
	if _, err := merged.WriteTimeline(&timeline); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(timeline.Bytes(), []byte("node(s)")) {
		t.Fatalf("timeline header missing:\n%s", timeline.String())
	}

	// --- phase 2: outage ---------------------------------------------
	// One node dies mid-publish: quorum still holds, but its share is
	// hinted and its breaker trips. Then the rest die and reads miss.
	n3.stop()
	if err := f.PublishVersion(ctx, 2, entries); err != nil {
		t.Fatalf("publish v2 with one node down: %v", err)
	}
	n1.stop()
	n2.stop()
	f.ProbeNow() // observe the dead nodes -> node.down events
	for i := 0; i < 4; i++ {
		if _, err := f.Get(ctx, []byte("k3"), 1); err == nil {
			t.Fatal("Get succeeded with every node down")
		}
	}
	clock.advance(time.Second)
	dip, err := rec.SampleNow()
	if err != nil {
		t.Fatalf("sample dip: %v", err)
	}
	if len(dip.SLO) == 0 || dip.SLO[0].TotalBad == 0 {
		t.Fatalf("dip sample shows no bad reads: %+v", dip.SLO)
	}
	if eventSeq(dip.Events, metrics.EventBreakerOpen) == 0 {
		t.Fatalf("dip sample missing breaker.open: %+v", dip.Events)
	}

	// /slo over HTTP: the read objective must be burning.
	code, body, _ := get(t, routerSrv, "/slo?format=json")
	if code != 200 {
		t.Fatalf("/slo = %d: %s", code, body)
	}
	var snaps []metrics.SLOSnapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("/slo json: %v\n%s", err, body)
	}
	if len(snaps) != 1 || snaps[0].Name != "fleet.read" {
		t.Fatalf("/slo snapshots = %+v", snaps)
	}
	var burn1m float64
	for _, w := range snaps[0].Windows {
		if w.Window == "1m" {
			burn1m = w.BurnRate
		}
	}
	if burn1m < 1 {
		t.Fatalf("1m burn during outage = %v, want >= 1", burn1m)
	}

	// --- phase 3: recovery -------------------------------------------
	n1.restart()
	n2.restart()
	n3.restart()
	time.Sleep(60 * time.Millisecond) // let the breaker cooldown lapse
	f.ProbeNow()                      // node.up, breaker.close, handoff drain
	if !n3.db.Has([]byte("k0"), 2) {
		t.Fatal("recovered node missing hinted v2 writes after drain")
	}
	clock.advance(2 * time.Minute) // slide the bad reads out of the 1m window
	for i := 0; i < 3; i++ {
		if val, err := f.Get(ctx, []byte("k3"), 1); err != nil || string(val) != "v3" {
			t.Fatalf("recovered Get = %q, %v", val, err)
		}
	}
	clock.advance(time.Second)
	recovered, err := rec.SampleNow()
	if err != nil {
		t.Fatalf("sample recovered: %v", err)
	}
	for _, w := range recovered.SLO[0].Windows {
		if w.Window == "1m" && w.BurnRate >= 1 {
			t.Fatalf("1m burn after recovery = %v, want < 1", w.BurnRate)
		}
	}

	// --- /events tells the story in order ----------------------------
	code, body, _ = get(t, routerSrv, "/events?format=json")
	if code != 200 {
		t.Fatalf("/events = %d: %s", code, body)
	}
	var evs []metrics.Event
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/events json: %v\n%s", err, body)
	}
	seqs := map[metrics.EventType]uint64{}
	for _, typ := range []metrics.EventType{
		metrics.EventBreakerOpen, metrics.EventBreakerClose,
		metrics.EventHandoffEnqueue, metrics.EventHandoffDrain,
		metrics.EventNodeDown, metrics.EventNodeUp,
		metrics.EventSLOBurn, metrics.EventSLOClear,
	} {
		seq := eventSeq(evs, typ)
		if seq == 0 {
			t.Fatalf("/events missing %s:\n%s", typ, body)
		}
		seqs[typ] = seq
	}
	for _, ord := range [][2]metrics.EventType{
		{metrics.EventBreakerOpen, metrics.EventBreakerClose},
		{metrics.EventHandoffEnqueue, metrics.EventHandoffDrain},
		{metrics.EventNodeDown, metrics.EventNodeUp},
		{metrics.EventSLOBurn, metrics.EventSLOClear},
	} {
		if seqs[ord[0]] >= seqs[ord[1]] {
			t.Fatalf("event order wrong: %s (seq %d) should precede %s (seq %d)",
				ord[0], seqs[ord[0]], ord[1], seqs[ord[1]])
		}
	}

	// --- recorder artifact -------------------------------------------
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("artifact has %d lines, want >= 3", len(lines))
	}
	var last metrics.RecorderSample
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last artifact line not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(last.SLO) == 0 {
		t.Fatalf("last artifact line carries no SLO snapshot: %s", lines[len(lines)-1])
	}
}
