package ops

import (
	"context"
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

// obsNode is one restartable storage node with its own metrics
// registry.
type obsNode struct {
	t    *testing.T
	addr string
	db   *core.DB
	srv  *server.Server
	reg  *metrics.Registry
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = ln.Addr().String()
	n.serve(ln)
	t.Cleanup(func() {
		n.stop()
		db.Close()
	})
	return n
}

func (n *obsNode) serve(ln net.Listener) {
	s := server.New(n.db)
	s.SetMetrics(n.reg)
	go s.Serve(ln)
	for s.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	n.srv = s
}

// stop kills the storage port; the engine stays up, so a restart
// serves what the node held before.
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

// TestFleetObservabilityE2E is the acceptance run for fleet
// observability: a 3-node fleet takes quorum writes and hedged reads
// through an injected outage, and the test asserts what an operator
// scraping the router's /metrics?format=prom would see — the read-miss
// counter rising during the outage and only the request counter after
// recovery (the paper's miss ratio is their quotient), the breakers
// opening and closing, and the hinted handoff draining.
func TestFleetObservabilityE2E(t *testing.T) {
	n1 := startObsNode(t)
	n2 := startObsNode(t)
	n3 := startObsNode(t)

	routerReg := metrics.NewRegistry()
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
		DialOpts:         []server.DialOption{server.WithTimeout(2 * time.Second)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// The router's own operator endpoint: every assertion below reads
	// it over HTTP, the way a scraper would.
	routerSrv := httptest.NewServer(NewMux(Config{Registry: routerReg}))
	defer routerSrv.Close()
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
	if val, err := f.Get(ctx, []byte("k3"), 1); err != nil || string(val) != "v3" {
		t.Fatalf("healthy Get = %q, %v", val, err)
	}
	if reqs, misses := promValue(t, routerSrv, "fleet_read_requests"), promValue(t, routerSrv, "fleet_read_misses"); reqs != 1 || misses != 0 {
		t.Fatalf("healthy requests/misses = %v/%v, want 1/0", reqs, misses)
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
	f.ProbeNow()
	for i := 0; i < 4; i++ {
		if _, err := f.Get(ctx, []byte("k3"), 1); err == nil {
			t.Fatal("Get succeeded with every node down")
		}
	}
	misses := promValue(t, routerSrv, "fleet_read_misses")
	if misses != 4 {
		t.Fatalf("fleet_read_misses = %v during the outage, want 4", misses)
	}
	if opens := promValue(t, routerSrv, "fleet_breaker_opens"); opens < 1 {
		t.Fatalf("fleet_breaker_opens = %v during the outage, want >= 1", opens)
	}
	reqs := promValue(t, routerSrv, "fleet_read_requests")

	// --- phase 3: recovery -------------------------------------------
	n1.restart()
	n2.restart()
	n3.restart()
	time.Sleep(60 * time.Millisecond) // let the breaker cooldown lapse
	f.ProbeNow()                      // breakers close, handoff drains
	if !n3.db.Has([]byte("k0"), 2) {
		t.Fatal("recovered node missing hinted v2 writes after drain")
	}
	for i := 0; i < 3; i++ {
		if val, err := f.Get(ctx, []byte("k3"), 1); err != nil || string(val) != "v3" {
			t.Fatalf("recovered Get = %q, %v", val, err)
		}
	}
	if got := promValue(t, routerSrv, "fleet_read_requests"); got != reqs+3 {
		t.Fatalf("fleet_read_requests after recovery = %v, want %v", got, reqs+3)
	}
	if got := promValue(t, routerSrv, "fleet_read_misses"); got != misses {
		t.Fatalf("fleet_read_misses moved after recovery: %v -> %v", misses, got)
	}
	if closes := promValue(t, routerSrv, "fleet_breaker_closes"); closes < 1 {
		t.Fatalf("fleet_breaker_closes = %v after recovery, want >= 1", closes)
	}
	if drained := promValue(t, routerSrv, "fleet_handoff_drained"); drained < 1 {
		t.Fatalf("fleet_handoff_drained = %v after recovery, want >= 1", drained)
	}
}
