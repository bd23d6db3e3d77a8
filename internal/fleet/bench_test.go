package fleet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// benchGroup starts n real-TCP storage nodes and a fleet routing to
// them as one replication group.
func benchGroup(b *testing.B, n int, cfg Config) (*Fleet, []*testNode) {
	b.Helper()
	nodes := make([]*testNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = startNodeSized(b, 1<<30, 16<<20)
		addrs[i] = nodes[i].addr
	}
	cfg.Groups = [][]string{addrs}
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return f, nodes
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
	f, _ := benchGroup(b, 3, Config{Replicas: 3, WriteQuorum: 2})
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
	f, _ := benchGroup(b, 3, Config{Replicas: 3, WriteQuorum: 2})
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

// The node-down benchmark's data: the publish workload's shape, scaled
// down — 20 KB values, every version after the first sends 70 % of its
// entries as dedup puts that the nodes resolve by traceback.
const (
	downKeys     = 500
	downVersions = 4
	downValue    = 20 << 10
	downDupPct   = 70
)

// BenchmarkFleetNodeDown reads Zipf(0.99) keys of the newest version
// through Fleet.Get at R=3/W=2 while one of the three nodes is stopped
// for the middle third of the run and then restarted. It reports the
// miss ratio — reads that failed or returned the wrong bytes, against
// the paper's 0.6 % objective (Fig. 10b) — and the read latency's p50
// and p99 in µs over the whole run. Run it with a fixed -benchtime
// (e.g. 3000x): the outage is a share of b.N.
func BenchmarkFleetNodeDown(b *testing.B) {
	f, nodes := benchGroup(b, 3, Config{Replicas: 3, WriteQuorum: 2})
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	want := make([][]byte, downKeys) // the value each key reads at the newest version
	for v := 1; v <= downVersions; v++ {
		entries := make([]Entry, downKeys)
		for k := range entries {
			entries[k].Key = downKey(k)
			if v > 1 && rng.Intn(100) < downDupPct {
				entries[k].Dedup = true
				continue
			}
			val := make([]byte, downValue)
			rng.Read(val)
			entries[k].Value, want[k] = val, val
		}
		if err := f.PublishVersion(ctx, uint64(v), entries); err != nil {
			b.Fatal(err)
		}
	}
	z := newZipf(downKeys, 0.99, 2)
	lat := make([]time.Duration, b.N)
	misses := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i == b.N/3 {
			nodes[0].stop()
		} else if i == 2*b.N/3 {
			nodes[0].restart()
		}
		k := z.next()
		start := time.Now()
		val, err := f.Get(ctx, downKey(k), downVersions)
		lat[i] = time.Since(start)
		if err != nil || !slices.Equal(val, want[k]) {
			misses++
		}
	}
	b.StopTimer()
	slices.Sort(lat)
	q := func(p float64) float64 {
		return float64(lat[min(int(p*float64(b.N)), b.N-1)]) / float64(time.Microsecond)
	}
	b.ReportMetric(float64(misses)/float64(b.N), "miss_ratio")
	b.ReportMetric(q(0.50), "p50_us")
	b.ReportMetric(q(0.99), "p99_us")
}

func downKey(k int) []byte { return []byte(fmt.Sprintf("url-%016d", k)) }

// zipf draws key ranks with P(rank k) ∝ 1/(k+1)^s by inverting the CDF;
// math/rand's Zipf cannot do s < 1, and the paper's read skew is 0.99.
type zipf struct {
	cdf  []float64
	perm []int // rank -> key, so the hot keys are spread over the key space
	rng  *rand.Rand
}

func newZipf(n int, s float64, seed int64) *zipf {
	rng := rand.New(rand.NewSource(seed))
	z := &zipf{cdf: make([]float64, n), perm: rng.Perm(n), rng: rng}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) next() int {
	return z.perm[min(sort.SearchFloat64s(z.cdf, z.rng.Float64()), len(z.cdf)-1)]
}
