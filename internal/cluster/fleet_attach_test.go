package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"

	"directload/internal/aof"
	"directload/internal/bifrost"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/fleet"
	"directload/internal/metrics"
	"directload/internal/server"
	"directload/internal/ssd"
)

// startNode brings up one real TCP storage node; a non-nil reg
// instruments it, so its handler spans land in the caller's tracer.
func startNode(t *testing.T, reg *metrics.Registry) (string, *core.DB) {
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
	s := server.New(db)
	s.SetLogf(nil)
	s.SetMetrics(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() {
		s.Close()
		db.Close()
	})
	return ln.Addr().String(), db
}

// everyNodeFleet is "every node gets every entry" as a fleet.Config:
// one group, R = W = group size. Dial options apply to every node.
func everyNodeFleet(t *testing.T, reg *metrics.Registry, addrs []string, opts ...server.DialOption) *fleet.Fleet {
	t.Helper()
	f, err := fleet.New(fleet.Config{
		Groups:        [][]string{addrs},
		Replicas:      len(addrs),
		WriteQuorum:   len(addrs),
		ProbeInterval: -1,
		Metrics:       reg,
		DialOpts:      opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestEveryNodeFleetPublish runs the full remote publish path with
// all-node replication: a simulated deployment with an attached W = N
// fleet ships every published version to every real TCP node in batched
// frames, and retention drops old versions there too.
func TestEveryNodeFleetPublish(t *testing.T) {
	addr1, db1 := startNode(t, nil)
	addr2, db2 := startNode(t, nil)

	reg := metrics.NewRegistry()
	cfg := DefaultConfig()
	cfg.RetainVersions = 2
	cfg.Metrics = reg
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.AttachFleet(everyNodeFleet(t, reg, []string{addr1, addr2}, server.WithPoolSize(2)))

	entries := func(version int) []Entry {
		out := make([]Entry, 0, 50)
		for i := 0; i < 50; i++ {
			out = append(out, Entry{
				Key:    []byte(fmt.Sprintf("mk-%03d", i)),
				Value:  []byte(fmt.Sprintf("val-%d-%03d", version, i)),
				Stream: bifrost.StreamInverted,
			})
		}
		return out
	}
	for v := 1; v <= 3; v++ {
		if _, err := d.PublishVersion(uint64(v), entries(v)); err != nil {
			t.Fatalf("publish v%d: %v", v, err)
		}
	}

	// Every node answers the live versions over the wire.
	ctx := context.Background()
	for _, addr := range []string{addr1, addr2} {
		cl, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		val, err := cl.GetContext(ctx, []byte("mk-007"), 3)
		if err != nil || string(val) != "val-3-007" {
			t.Fatalf("%s: Get v3 = %q, %v", addr, val, err)
		}
		// Retention (cap 2) dropped v1 remotely as well: the drop
		// tombstones every record of the version.
		if _, err := cl.GetContext(ctx, []byte("mk-007"), 1); !errors.Is(err, core.ErrDeleted) {
			t.Fatalf("%s: v1 should be retired, got %v", addr, err)
		}
		cl.Close()
	}
	// The node engines directly: every record landed on every node.
	for n, db := range []*core.DB{db1, db2} {
		for i := 0; i < 50; i++ {
			if !db.Has([]byte(fmt.Sprintf("mk-%03d", i)), 2) {
				t.Fatalf("node %d missing v2 record %d", n+1, i)
			}
		}
	}
	if got := reg.Snapshot()["fleet.publish.versions"]; got != int64(3) {
		t.Fatalf("fleet.publish.versions = %v, want 3", got)
	}
}

// TestEveryNodeFleetStandalone exercises the W = N fleet without an
// attached system — the path a builder uses to push a version straight
// to remote nodes: a bulk version spanning several batch frames, dedup
// entries forwarded as dedup puts the node resolves against its own
// older version, and a remote drop.
func TestEveryNodeFleetStandalone(t *testing.T) {
	addr, _ := startNode(t, nil)
	f := everyNodeFleet(t, nil, []string{addr})
	ctx := context.Background()
	const n = 2000
	base := make([]fleet.Entry, 0, n)
	dups := make([]fleet.Entry, 0, n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("bulk-%04d", i))
		base = append(base, fleet.Entry{Key: key, Value: []byte("payload")})
		dups = append(dups, fleet.Entry{Key: key, Dedup: true})
	}
	if err := f.PublishVersion(ctx, 8, base); err != nil {
		t.Fatal(err)
	}
	if err := f.PublishVersion(ctx, 9, dups); err != nil {
		t.Fatal(err)
	}
	cl, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ents, _, err := cl.RangeContext(ctx, []byte("bulk-"), []byte("bulk-~"), 2500)
	if err != nil || len(ents) != n {
		t.Fatalf("Range = %d entries, %v", len(ents), err)
	}
	if ents[0].Version != 9 {
		t.Fatalf("newest live version = %d, want 9", ents[0].Version)
	}
	// The v9 records carry no value of their own: the node's traceback
	// finds the v8 payload.
	if val, err := cl.GetContext(ctx, []byte("bulk-0000"), 9); err != nil || string(val) != "payload" {
		t.Fatalf("dedup Get = %q, %v", val, err)
	}
	if err := f.DropVersion(ctx, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetContext(ctx, []byte("bulk-0000"), 9); !errors.Is(err, core.ErrDeleted) {
		t.Fatalf("dropped version Get = %v", err)
	}
}

// TestFleetAttachPublishGet runs the orchestrator with an attached
// fleet: every published version quorum-writes onto the sharded nodes,
// FleetGet serves the newest version via hedged reads, and retention
// drops retired versions fleet-side.
func TestFleetAttachPublishGet(t *testing.T) {
	addr1, db1 := startNode(t, nil)
	addr2, _ := startNode(t, nil)
	addr3, _ := startNode(t, nil)

	cfg := DefaultConfig()
	cfg.RetainVersions = 2
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	f, err := fleet.New(fleet.Config{
		Groups:        [][]string{{addr1, addr2, addr3}},
		Replicas:      3,
		WriteQuorum:   2,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d.AttachFleet(f)

	entries := func(version int) []Entry {
		out := make([]Entry, 0, 40)
		for i := 0; i < 40; i++ {
			out = append(out, Entry{
				Key:    []byte(fmt.Sprintf("fk-%03d", i)),
				Value:  []byte(fmt.Sprintf("val-%d-%03d", version, i)),
				Stream: bifrost.StreamInverted,
			})
		}
		return out
	}
	ctx := context.Background()
	if _, err := d.FleetGet(ctx, []byte("fk-000")); err == nil {
		t.Fatal("FleetGet before any publish should fail")
	}
	for v := 1; v <= 3; v++ {
		if _, err := d.PublishVersion(uint64(v), entries(v)); err != nil {
			t.Fatalf("publish v%d: %v", v, err)
		}
	}

	// FleetGet reads the newest version through the router.
	val, err := d.FleetGet(ctx, []byte("fk-011"))
	if err != nil || string(val) != "val-3-011" {
		t.Fatalf("FleetGet = %q, %v", val, err)
	}
	// With R = group size, every node holds the records.
	if !db1.Has([]byte("fk-000"), 3) {
		t.Fatal("fleet node missing v3 record")
	}
	// Retention (cap 2) dropped v1 on the fleet too.
	if _, err := f.Get(ctx, []byte("fk-000"), 1); !errors.Is(err, core.ErrDeleted) {
		t.Fatalf("v1 should be retired fleet-side, got %v", err)
	}
}

// TestFleetGetDetached covers the no-fleet error path.
func TestFleetGetDetached(t *testing.T) {
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.FleetGet(context.Background(), []byte("k")); err == nil {
		t.Fatal("FleetGet without a fleet should fail")
	}
}
