package fleet

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/server"
	"directload/internal/ssd"
)

// benchGroup starts n real-TCP storage nodes and a fleet routing to
// them as one replication group.
func benchGroup(b *testing.B, n int, cfg Config) *Fleet {
	b.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		dev, err := ssd.NewDevice(ssd.DefaultConfig(1 << 30))
		if err != nil {
			b.Fatal(err)
		}
		db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
			AOF: aof.Config{FileSize: 16 << 20, GCThreshold: 0.25}, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		s := server.New(db)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go s.Serve(ln)
		addrs[i] = ln.Addr().String()
		b.Cleanup(func() {
			s.Close()
			db.Close()
		})
	}
	cfg.Groups = [][]string{addrs}
	cfg.ProbeInterval = -1
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return f
}

// fleetEntries is one version's worth of records for the quorum-write
// benchmark — small enough to keep `make bench` quick, large enough
// that batching dominates connection setup.
const fleetEntries = 2000

func benchFleetEntries(version int) []Entry {
	out := make([]Entry, 0, fleetEntries)
	for i := 0; i < fleetEntries; i++ {
		out = append(out, Entry{
			Key:   []byte(fmt.Sprintf("bench/%05d", i)),
			Value: []byte(fmt.Sprintf("payload-%d-%05d-0123456789abcdef", version, i)),
		})
	}
	return out
}

// BenchmarkFleetQuorumWrite publishes a 2k-entry version through the
// router at R=3/W=2 over three live TCP nodes. The puts/s figure counts
// logical entries, not replica writes (each entry lands on 3 nodes).
func BenchmarkFleetQuorumWrite(b *testing.B) {
	f := benchGroup(b, 3, Config{Replicas: 3, WriteQuorum: 2})
	ctx := context.Background()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := f.PublishVersion(ctx, uint64(n+1), benchFleetEntries(n+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fleetEntries*b.N)/b.Elapsed().Seconds(), "puts/s")
}

// BenchmarkFleetHedgedRead measures single-key reads through the
// hedged parallel-read path with all replicas healthy: the common case
// where the primary answers before the hedge timer fires.
func BenchmarkFleetHedgedRead(b *testing.B) {
	f := benchGroup(b, 3, Config{
		Replicas: 3, WriteQuorum: 2,
		HedgeAfter: 5 * time.Millisecond,
	})
	ctx := context.Background()
	if err := f.PublishVersion(ctx, 1, benchFleetEntries(1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		key := []byte(fmt.Sprintf("bench/%05d", n%fleetEntries))
		if _, err := f.Get(ctx, key, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "gets/s")
}
