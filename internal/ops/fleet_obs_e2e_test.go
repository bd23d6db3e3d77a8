package ops

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
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

// obsNode is one restartable storage node wired as qindbd wires it:
// its own metrics registry with the node.read SLO on it, scraped over
// an operator endpoint that outlives the storage port.
type obsNode struct {
	t    *testing.T
	addr string
	db   *core.DB
	srv  *server.Server
	ln   net.Listener
	reg  *metrics.Registry
	slo  *metrics.SLO
	ops  *httptest.Server
}

func startObsNode(t *testing.T) *obsNode {
	t.Helper()
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
	n := &obsNode{t: t, db: db, reg: metrics.NewRegistry()}
	n.slo = metrics.NewSLO(metrics.SLOConfig{Name: "node.read", Target: 0.006})
	n.slo.Register(n.reg)
	n.ops = httptest.NewServer(NewMux(Config{Registry: n.reg}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = ln.Addr().String()
	n.serve(ln)
	t.Cleanup(func() {
		n.stop()
		n.ops.Close()
		db.Close()
	})
	return n
}

func (n *obsNode) serve(ln net.Listener) {
	s := server.New(n.db)
	s.SetMetrics(n.reg)
	s.SetReadSLO(n.slo)
	go s.Serve(ln)
	n.srv, n.ln = s, ln
}

// stop kills the storage port; the engine stays up, so a restart
// serves what the node held before.
func (n *obsNode) stop() {
	if n.srv != nil {
		// The listener is closed here too: a Close before Serve has taken
		// it would leave the port bound.
		n.srv.Close()
		n.ln.Close()
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

// promValue scrapes srv's /metrics?format=prom and returns the sample
// of one counter or gauge family, failing the test when it is absent.
func promValue(t *testing.T, srv *httptest.Server, name string) float64 {
	t.Helper()
	code, body, _ := get(t, srv, "/metrics?format=prom")
	if code != 200 {
		t.Fatalf("/metrics?format=prom = %d", code)
	}
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics?format=prom has no %s:\n%s", name, body)
	return 0
}

// fleetSum adds one family's sample across the nodes' scrapes, the
// way the fleet's figure is computed from per-node counters.
func fleetSum(t *testing.T, name string, nodes ...*obsNode) float64 {
	t.Helper()
	var sum float64
	for _, n := range nodes {
		sum += promValue(t, n.ops, name)
	}
	return sum
}

// TestFleetObservabilityE2E is the acceptance run for fleet
// observability: a 3-node fleet takes quorum writes and hedged reads
// through an injected outage, and the test asserts what an operator
// scraping each node's /metrics?format=prom would see — every replica's
// share of a publish as batched sub-ops, fleet reads as node.read SLO
// events (the paper's miss ratio is bad over good+bad, summed across
// nodes), nothing counted on a node while it is down, and no read
// counted bad. With every replica down the router's read fails as a
// transport error, not as a miss of the key, and the same router reads
// again once the nodes are back.
func TestFleetObservabilityE2E(t *testing.T) {
	n1 := startObsNode(t)
	n2 := startObsNode(t)
	n3 := startObsNode(t)
	all := []*obsNode{n1, n2, n3}

	f, err := fleet.New(fleet.Config{
		Groups:      [][]string{{n1.addr, n2.addr, n3.addr}},
		Replicas:    3,
		WriteQuorum: 2,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx := context.Background()

	// --- phase 1: healthy fleet, one write+read ---------------------
	entries := make([]fleet.Entry, 8)
	for i := range entries {
		entries[i] = fleet.Entry{
			Key:   []byte{'k', byte('0' + i)},
			Value: []byte{'v', byte('0' + i)},
		}
	}
	if err := f.PublishVersion(ctx, 1, entries); err != nil {
		t.Fatalf("publish v1: %v", err)
	}
	// PublishVersion waits for every replica, so each node has counted
	// its whole share when it returns.
	for _, n := range all {
		if got := promValue(t, n.ops, "server_batch_ops"); got != 8 {
			t.Fatalf("%s server_batch_ops = %v after v1, want 8", n.addr, got)
		}
	}
	if val, err := f.Get(ctx, []byte("k3"), 1); err != nil || string(val) != "v3" {
		t.Fatalf("healthy Get = %q, %v", val, err)
	}
	// The replica that answered counted its read before replying; a
	// hedged one may still be in flight, so only a floor holds.
	if good := fleetSum(t, "slo_node_read_good", all...); good < 1 {
		t.Fatalf("slo_node_read_good summed = %v after a healthy Get, want >= 1", good)
	}

	// --- phase 2: outage ---------------------------------------------
	// One node dies before a publish: quorum still holds, and only the
	// live nodes count the write. Then the rest die and reads fail.
	n3.stop()
	if err := f.PublishVersion(ctx, 2, entries); err != nil {
		t.Fatalf("publish v2 with one node down: %v", err)
	}
	for n, want := range map[*obsNode]float64{n1: 16, n2: 16, n3: 8} {
		if got := promValue(t, n.ops, "server_batch_ops"); got != want {
			t.Fatalf("%s server_batch_ops = %v after v2, want %v", n.addr, got, want)
		}
	}
	n1.stop()
	n2.stop()
	// Let any hedged read of phase 1 land before the counts are taken.
	time.Sleep(50 * time.Millisecond)
	before := fleetSum(t, "server_req_get_latency_us_count", all...)
	for i := 0; i < 4; i++ {
		if _, err := f.Get(ctx, []byte("k3"), 1); err == nil || errors.Is(err, core.ErrNotFound) {
			t.Fatalf("Get with every node down = %v, want a transport error", err)
		}
	}
	if got := fleetSum(t, "server_req_get_latency_us_count", all...); got != before {
		t.Fatalf("node get counts moved while every node was down: %v -> %v", before, got)
	}

	// --- phase 3: recovery -------------------------------------------
	n1.restart()
	n2.restart()
	n3.restart()
	goodBefore := fleetSum(t, "slo_node_read_good", all...)
	for i := 0; i < 3; i++ {
		if val, err := f.Get(ctx, []byte("k3"), 1); err != nil || string(val) != "v3" {
			t.Fatalf("recovered Get = %q, %v", val, err)
		}
	}
	if got := fleetSum(t, "slo_node_read_good", all...); got < goodBefore+3 {
		t.Fatalf("slo_node_read_good summed = %v after 3 recovered Gets, want >= %v", got, goodBefore+3)
	}
	if bad := fleetSum(t, "slo_node_read_bad", all...); bad != 0 {
		t.Fatalf("slo_node_read_bad summed = %v, want 0: every read asked for a key its replica held", bad)
	}
}
