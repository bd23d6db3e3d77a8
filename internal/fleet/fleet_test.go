package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/metrics/testutil"
	"directload/internal/mint"
	"directload/internal/server"
	"directload/internal/ssd"
)

// testNode is one restartable real-TCP storage node: stopping kills the
// server but keeps the engine, so a restart on the same address models
// a node that crashed and recovered with its flash intact.
type testNode struct {
	t    *testing.T
	addr string
	db   *core.DB
	srv  *server.Server
	reg  *metrics.Registry
}

func startNode(t *testing.T, reg *metrics.Registry) *testNode {
	t.Helper()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(256 << 20))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 4 << 20, GCThreshold: 0.25}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tn := &testNode{t: t, db: db, reg: reg}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tn.addr = ln.Addr().String()
	tn.serve(ln)
	t.Cleanup(func() {
		tn.stop()
		db.Close()
	})
	return tn
}

func (tn *testNode) serve(ln net.Listener) {
	s := server.New(tn.db)
	if tn.reg != nil {
		s.SetMetrics(tn.reg)
	}
	go s.Serve(ln)
	// Wait until Serve has registered the listener; otherwise an
	// immediate stop() could miss it and leave the port bound.
	for s.Addr() == nil {
		time.Sleep(time.Millisecond)
	}
	tn.srv = s
}

// stop kills the TCP server; the engine stays open.
func (tn *testNode) stop() {
	if tn.srv != nil {
		tn.srv.Close()
		tn.srv = nil
	}
}

// restart rebinds the original address over the surviving engine.
func (tn *testNode) restart() {
	tn.t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		ln, err = net.Listen("tcp", tn.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		tn.t.Fatalf("rebind %s: %v", tn.addr, err)
	}
	tn.serve(ln)
}

// has reports whether the node's engine holds (key, version).
func (tn *testNode) has(key string, version uint64) bool {
	return tn.db.Has([]byte(key), version)
}

// testFleet builds a fleet over the nodes as one group, with fast
// retries and the background prober off so tests drive probing.
func testFleet(t *testing.T, cfg Config, nodes ...*testNode) *Fleet {
	t.Helper()
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	cfg.Groups = [][]string{addrs}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	if cfg.DialOpts == nil {
		cfg.DialOpts = []server.DialOption{server.WithTimeout(2 * time.Second)}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func testEntries(version, n int) []Entry {
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Entry{
			Key:   []byte(fmt.Sprintf("fk-%03d", i)),
			Value: []byte(fmt.Sprintf("fv-%d-%03d", version, i)),
		})
	}
	return out
}

// TestConfigValidation checks the constructor's guardrails.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("empty config err = %v", err)
	}
	if _, err := New(Config{Groups: [][]string{{"a", "b"}}, Replicas: 3, ProbeInterval: -1}); err == nil {
		t.Fatal("2-node group with 3 replicas should fail")
	}
	if _, err := New(Config{Groups: [][]string{{"a", "b", "c"}}, Replicas: 3, WriteQuorum: 4, ProbeInterval: -1}); err == nil {
		t.Fatal("W > R should fail")
	}
	if _, err := New(Config{Groups: [][]string{{"a", "a", "b"}}, Replicas: 2, ProbeInterval: -1}); err == nil {
		t.Fatal("duplicate node id should fail")
	}
}

// TestPlacementCrossCheckWithMint is the anti-drift guard: the fleet
// router and the simulated mint.Cluster must place a key sample onto
// identical groups and replica sets when configured with the same
// member IDs. New nodes are never dialed — placement is pure math.
func TestPlacementCrossCheckWithMint(t *testing.T) {
	mc, err := mint.New(mint.Config{
		Groups:        3,
		NodesPerGroup: 4,
		Replicas:      3,
		NodeCapacity:  16 << 20,
		Engine:        core.Options{AOF: aof.Config{FileSize: 1 << 20, GCThreshold: 0.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	// Reconstruct mint's per-group membership from its node IDs
	// ("g<group>-n<seq>") to configure an identically-shaped fleet.
	groups := make([][]string, mc.Groups())
	for _, id := range mc.Nodes() {
		var g, n int
		if _, err := fmt.Sscanf(id, "g%d-n%d", &g, &n); err != nil {
			t.Fatalf("unexpected mint node id %q", id)
		}
		groups[g] = append(groups[g], id)
	}
	f, err := New(Config{Groups: groups, Replicas: 3, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("cross/%05d", i*7919))
		g, ids := f.ReplicasFor(key)
		mintIDs := mc.ReplicaIDs(key)
		if len(ids) != len(mintIDs) {
			t.Fatalf("key %s: fleet picked %d replicas, mint %d", key, len(ids), len(mintIDs))
		}
		for j := range ids {
			if ids[j] != mintIDs[j] {
				t.Fatalf("key %s: fleet replicas %v != mint replicas %v", key, ids, mintIDs)
			}
			if !strings.HasPrefix(ids[j], fmt.Sprintf("g%d-", g)) {
				t.Fatalf("key %s: replica %s outside fleet group %d", key, ids[j], g)
			}
		}
	}
}

// TestQuorumPublishAndGet is the basic happy path: a publish lands on
// all three nodes, and a fleet read returns the value. It runs at
// R=3/W=2 and at R=W=N, where every node must take every entry. The
// second version is all dedup entries, forwarded as dedup puts that each
// node resolves against its own copy of the first; it holds more
// entries than one batch frame carries (1024), so each node takes
// several.
func TestQuorumPublishAndGet(t *testing.T) {
	for _, cfg := range []Config{
		{Replicas: 3, WriteQuorum: 2},
		{Replicas: 3, WriteQuorum: 3},
	} {
		t.Run(fmt.Sprintf("R%dW%d", cfg.Replicas, cfg.WriteQuorum), func(t *testing.T) {
			n1, n2, n3 := startNode(t, nil), startNode(t, nil), startNode(t, nil)
			f := testFleet(t, cfg, n1, n2, n3)
			ctx := context.Background()

			const n = 2500
			entries := testEntries(1, n)
			if err := f.PublishVersion(ctx, 1, entries); err != nil {
				t.Fatalf("publish: %v", err)
			}
			dups := make([]Entry, n)
			for i, e := range entries {
				dups[i] = Entry{Key: e.Key, Dedup: true}
			}
			if err := f.PublishVersion(ctx, 2, dups); err != nil {
				t.Fatalf("dedup publish: %v", err)
			}
			for _, tn := range []*testNode{n1, n2, n3} {
				if !tn.has("fk-000", 1) || !tn.has(fmt.Sprintf("fk-%03d", n-1), 2) {
					t.Fatalf("node %s missing entries after full-strength publish", tn.addr)
				}
			}
			for _, v := range []uint64{1, 2} {
				val, err := f.Get(ctx, []byte("fk-007"), v)
				if err != nil || string(val) != "fv-1-007" {
					t.Fatalf("Get v%d = %q, %v", v, val, err)
				}
			}
			if _, err := f.Get(ctx, []byte("absent"), 1); !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("Get(absent) err = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestQuorumSurvivesNodeDownAndHandoffDrains kills one replica, checks
// a publish still reaches quorum with the dead node's share hinted, and
// that recovery + a probe round drains the handoff so the node
// converges on the version it missed.
func TestQuorumSurvivesNodeDownAndHandoffDrains(t *testing.T) {
	testutil.CheckGoroutines(t)
	n1, n2, n3 := startNode(t, nil), startNode(t, nil), startNode(t, nil)
	f := testFleet(t, Config{Replicas: 3, WriteQuorum: 2, WriteRetries: 1}, n1, n2, n3)
	ctx := context.Background()

	if err := f.PublishVersion(ctx, 1, testEntries(1, 30)); err != nil {
		t.Fatalf("publish v1: %v", err)
	}

	n3.stop()
	if err := f.PublishVersion(ctx, 2, testEntries(2, 30)); err != nil {
		t.Fatalf("publish v2 with one node down: %v", err)
	}
	if !n1.has("fk-000", 2) || !n2.has("fk-000", 2) {
		t.Fatal("live replicas missing v2 after quorum publish")
	}
	var down NodeStatus
	for _, ns := range f.Status().Nodes {
		if ns.ID == n3.addr {
			down = ns
		}
	}
	if down.HandoffDepth != 30 {
		t.Fatalf("downed node handoff depth = %d, want 30", down.HandoffDepth)
	}

	// Reads keep working while the replica is gone.
	if val, err := f.Get(ctx, []byte("fk-005"), 2); err != nil || string(val) != "fv-2-005" {
		t.Fatalf("Get during outage = %q, %v", val, err)
	}

	n3.restart()
	f.ProbeNow()
	for _, ns := range f.Status().Nodes {
		if ns.ID == n3.addr && ns.HandoffDepth != 0 {
			t.Fatalf("handoff not drained after recovery probe: depth %d", ns.HandoffDepth)
		}
	}
	for i := 0; i < 30; i++ {
		if key := fmt.Sprintf("fk-%03d", i); !n3.has(key, 2) {
			t.Fatalf("recovered node missing %s@v2 after handoff drain", key)
		}
	}
}

// TestQuorumFailure: with two of three replicas down and W=2, a publish
// must fail with ErrQuorum and name the unreachable nodes.
func TestQuorumFailure(t *testing.T) {
	n1, n2, n3 := startNode(t, nil), startNode(t, nil), startNode(t, nil)
	f := testFleet(t, Config{Replicas: 3, WriteQuorum: 2, WriteRetries: 1}, n1, n2, n3)

	n2.stop()
	n3.stop()
	err := f.PublishVersion(context.Background(), 1, testEntries(1, 10))
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("publish err = %v, want ErrQuorum", err)
	}
	if msg := err.Error(); !strings.Contains(msg, n2.addr) || !strings.Contains(msg, n3.addr) {
		t.Fatalf("quorum error does not name both dead nodes: %v", msg)
	}
}

// slowProxy fronts a backend with a fixed delay on every server→client
// chunk — an artificially slow replica for hedging tests.
func slowProxy(t *testing.T, backend string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				b, err := net.Dial("tcp", backend)
				if err != nil {
					c.Close()
					return
				}
				go func() {
					io.Copy(b, c)
					b.Close()
				}()
				buf := make([]byte, 32<<10)
				for {
					n, rerr := b.Read(buf)
					if n > 0 {
						time.Sleep(delay)
						if _, werr := c.Write(buf[:n]); werr != nil {
							break
						}
					}
					if rerr != nil {
						break
					}
				}
				c.Close()
				b.Close()
			}(c)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// TestHedgedReadBeatsSlowReplica slows one replica behind a delaying
// proxy and picks a key whose primary it is: the hedge must fire and a
// healthy replica must answer well before the slow one would have.
func TestHedgedReadBeatsSlowReplica(t *testing.T) {
	slow := startNode(t, nil)
	n2, n3 := startNode(t, nil), startNode(t, nil)
	const delay = 300 * time.Millisecond
	proxyAddr := slowProxy(t, slow.addr, delay)

	reg := metrics.NewRegistry()
	f := testFleet(t, Config{
		Replicas:    3,
		WriteQuorum: 2,
		HedgeAfter:  15 * time.Millisecond,
		Metrics:     reg,
	}, &testNode{addr: proxyAddr}, n2, n3)

	// Find a key whose primary replica is the proxied node.
	var key []byte
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("hedge-%04d", i))
		if _, ids := f.ReplicasFor(k); ids[0] == proxyAddr {
			key = k
			break
		}
	}
	if key == nil {
		t.Fatal("no key found with the slow node as primary")
	}
	// Load the key directly onto the fast backends so the publish path
	// doesn't pay the proxy delay.
	for _, addr := range []string{slow.addr, n2.addr, n3.addr} {
		cl, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.PutContext(context.Background(), key, 1, []byte("hv"), false); err != nil {
			t.Fatal(err)
		}
		cl.Close()
	}

	start := time.Now()
	val, err := f.Get(context.Background(), key, 1)
	elapsed := time.Since(start)
	if err != nil || string(val) != "hv" {
		t.Fatalf("hedged Get = %q, %v", val, err)
	}
	if elapsed >= delay {
		t.Fatalf("hedged read took %v, not faster than the slow replica's %v", elapsed, delay)
	}
	if wins := reg.Counter("fleet.read.hedge_wins").Load(); wins < 1 {
		t.Fatalf("hedge_wins = %d, want >= 1", wins)
	}
	if hedges := reg.Counter("fleet.read.hedges").Load(); hedges < 1 {
		t.Fatalf("hedges = %d, want >= 1", hedges)
	}
}

// TestReadRepairConvergence leaves the primary replica stale (missing
// the key), reads through the fleet, and requires the repair write to
// converge the stale replica.
func TestReadRepairConvergence(t *testing.T) {
	n1, n2, n3 := startNode(t, nil), startNode(t, nil), startNode(t, nil)
	reg := metrics.NewRegistry()
	f := testFleet(t, Config{Replicas: 3, WriteQuorum: 2, Metrics: reg}, n1, n2, n3)

	byAddr := map[string]*testNode{n1.addr: n1, n2.addr: n2, n3.addr: n3}
	key := []byte("repair-key")
	_, ids := f.ReplicasFor(key)
	stale := byAddr[ids[0]]
	// Only the secondary replicas hold the key.
	for _, id := range ids[1:] {
		cl, err := server.Dial(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.PutContext(context.Background(), key, 1, []byte("repaired"), false); err != nil {
			t.Fatal(err)
		}
		cl.Close()
	}
	if stale.has(string(key), 1) {
		t.Fatal("primary unexpectedly has the key before the read")
	}

	val, err := f.Get(context.Background(), key, 1)
	if err != nil || string(val) != "repaired" {
		t.Fatalf("Get = %q, %v", val, err)
	}
	// Close waits for in-flight repair writes, making convergence
	// deterministic to observe.
	f.Close()
	if !stale.has(string(key), 1) {
		t.Fatal("stale replica not repaired after fleet read")
	}
	if repairs := reg.Counter("fleet.read.repairs").Load(); repairs < 1 {
		t.Fatalf("repairs = %d, want >= 1", repairs)
	}
}

// TestBreakerOpensAndRecovers drives enough failures into one node to
// trip its breaker, checks it is skipped, then heals it via probing.
func TestBreakerOpensAndRecovers(t *testing.T) {
	n1, n2, n3 := startNode(t, nil), startNode(t, nil), startNode(t, nil)
	reg := metrics.NewRegistry()
	f := testFleet(t, Config{
		Replicas: 3, WriteQuorum: 2, WriteRetries: 1,
		BreakerThreshold: 2, BreakerCooldown: 50 * time.Millisecond,
		Metrics: reg,
	}, n1, n2, n3)
	ctx := context.Background()

	n3.stop()
	// Two publishes, each retrying once = enough consecutive transport
	// failures to trip the threshold of 2.
	for v := uint64(1); v <= 2; v++ {
		if err := f.PublishVersion(ctx, v, testEntries(int(v), 5)); err != nil {
			t.Fatalf("publish v%d: %v", v, err)
		}
	}
	var st NodeStatus
	for _, ns := range f.Status().Nodes {
		if ns.ID == n3.addr {
			st = ns
		}
	}
	if st.Breaker == "closed" {
		t.Fatalf("breaker still closed after repeated failures: %+v", st)
	}
	if opens := reg.Counter("fleet.breaker.opens").Load(); opens < 1 {
		t.Fatalf("breaker.opens = %d, want >= 1", opens)
	}

	n3.restart()
	time.Sleep(60 * time.Millisecond) // let the cooldown lapse
	f.ProbeNow()                      // half-open trial succeeds, breaker closes, handoff drains
	for _, ns := range f.Status().Nodes {
		if ns.ID == n3.addr {
			if ns.Breaker != "closed" {
				t.Fatalf("breaker = %s after successful probe", ns.Breaker)
			}
			if ns.HandoffDepth != 0 {
				t.Fatalf("handoff depth = %d after drain", ns.HandoffDepth)
			}
		}
	}
	if !n3.has("fk-000", 2) {
		t.Fatal("recovered node missing hinted writes")
	}
}

// TestDropVersionHinted checks retention reaches a down node via the
// handoff queue once it recovers.
func TestDropVersionHinted(t *testing.T) {
	n1, n2, n3 := startNode(t, nil), startNode(t, nil), startNode(t, nil)
	f := testFleet(t, Config{Replicas: 3, WriteQuorum: 2, WriteRetries: 1}, n1, n2, n3)
	ctx := context.Background()

	if err := f.PublishVersion(ctx, 1, testEntries(1, 10)); err != nil {
		t.Fatal(err)
	}
	n3.stop()
	if err := f.DropVersion(ctx, 1); err != nil {
		t.Fatalf("DropVersion with a node down: %v", err)
	}
	if n1.has("fk-000", 1) || n2.has("fk-000", 1) {
		t.Fatal("live nodes still hold the dropped version")
	}
	if !n3.has("fk-000", 1) {
		t.Fatal("dead node should still hold the version (drop owed via hint)")
	}
	n3.restart()
	f.ProbeNow()
	if n3.has("fk-000", 1) {
		t.Fatal("recovered node still holds the dropped version after drain")
	}
}

// TestFleetE2EOneNodeDown is the acceptance run: a 3-node group at
// R=3/W=2 with one node down — the publish reaches quorum, a hedged
// parallel read serves the GET, and the recovered node converges via
// handoff.
func TestFleetE2EOneNodeDown(t *testing.T) {
	testutil.CheckGoroutines(t)
	reg := metrics.NewRegistry()
	n1 := startNode(t, reg)
	n2 := startNode(t, reg)
	n3 := startNode(t, reg)
	f := testFleet(t, Config{
		Replicas: 3, WriteQuorum: 2, WriteRetries: 1, Metrics: reg,
		DialOpts: []server.DialOption{server.WithTimeout(2 * time.Second)},
	}, n1, n2, n3)

	n3.stop()
	ctx := context.Background()
	if err := f.PublishVersion(ctx, 1, testEntries(1, 25)); err != nil {
		t.Fatalf("publish with one node down: %v", err)
	}
	val, err := f.Get(ctx, []byte("fk-003"), 1)
	if err != nil || string(val) != "fv-1-003" {
		t.Fatalf("Get = %q, %v", val, err)
	}

	n3.restart()
	f.ProbeNow()
	if !n3.has("fk-003", 1) {
		t.Fatal("recovered node did not converge via handoff")
	}
}

// TestStatusShape sanity-checks the operator snapshot.
func TestStatusShape(t *testing.T) {
	n1, n2, n3 := startNode(t, nil), startNode(t, nil), startNode(t, nil)
	f := testFleet(t, Config{Replicas: 3}, n1, n2, n3)
	st := f.Status()
	if st.Groups != 1 || st.Replicas != 3 || st.WriteQuorum != 2 {
		t.Fatalf("status = %+v", st)
	}
	if len(st.Nodes) != 3 {
		t.Fatalf("status nodes = %d", len(st.Nodes))
	}
	if st.HedgeDelayUs != int64(2*time.Millisecond/time.Microsecond) {
		t.Fatalf("hedge delay = %dus, want the 2ms default before samples exist", st.HedgeDelayUs)
	}
	for _, ns := range st.Nodes {
		if ns.Breaker != "closed" || ns.HandoffDepth != 0 {
			t.Fatalf("fresh node status = %+v", ns)
		}
	}
}
