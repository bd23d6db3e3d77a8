package cluster

import (
	"errors"
	"testing"
	"time"

	"directload/internal/bifrost"
	"directload/internal/lsm"
	"directload/internal/mint"
	"directload/internal/workload"
)

var errNodeDown = errors.New("node down")

// downEngine is a crashed node's engine: every Put and Get errors.
type downEngine struct{ mint.Engine }

func (downEngine) Put([]byte, uint64, []byte, bool) error {
	return errNodeDown
}

func (downEngine) Get([]byte, uint64) ([]byte, error) {
	return nil, errNodeDown
}

// failNodes makes every DC's Mint cluster build the nodes of the given
// build seeds (1 is a cluster's first node, g0-n0) as downEngines.
func failNodes(cfg *Config, seeds ...int64) {
	build := cfg.Mint.Factory
	cfg.Mint.Factory = func(capacity, seed int64) (*mint.EngineStack, error) {
		stack, err := build(capacity, seed)
		if err != nil {
			return nil, err
		}
		for _, s := range seeds {
			if s == seed {
				stack.Engine = downEngine{stack.Engine}
			}
		}
		return stack, nil
	}
}

// TestPublishSurvivesNodeFailure: a storage node failing before a
// version arrives must not block the update (writes still reach quorum).
func TestPublishSurvivesNodeFailure(t *testing.T) {
	// Fail one node in every DC.
	cfg := testConfig()
	failNodes(&cfg, 1)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g := testGenerator(t, 60, 1024)
	rep, err := d.PublishVersion(1, genEntries(t, g, bifrost.StreamInverted))
	if err != nil {
		t.Fatalf("publish with failed nodes: %v", err)
	}
	if rep.Keys != 60 {
		t.Fatalf("keys = %d", rep.Keys)
	}
	if err := d.ActivateEverywhere(1); err != nil {
		t.Fatal(err)
	}
	// Reads served by surviving replicas.
	for i := 0; i < 60; i += 11 {
		if _, err := d.Get(d.Top.Regions[0].DCs[0], g.Key(i)); err != nil {
			t.Fatalf("Get key %d: %v", i, err)
		}
	}
}

// TestBaselineEngineSystem runs the whole pipeline over LSM-backed Mint
// clusters — the full "without DirectLoad" stack of Fig. 10a.
func TestBaselineEngineSystem(t *testing.T) {
	cfg := testConfig()
	cfg.DedupEnabled = false
	cfg.Mint.Factory = mint.LSMFactory(lsm.DefaultOptions())
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g := testGenerator(t, 50, 1024)
	for v := uint64(1); v <= 2; v++ {
		if _, err := d.PublishVersion(v, genEntries(t, g, bifrost.StreamInverted)); err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
	}
	if err := d.ActivateEverywhere(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i += 9 {
		val, err := d.Get(d.Top.Regions[2].DCs[0], g.Key(i))
		if err != nil || string(val) != string(g.Value(i)) {
			t.Fatalf("baseline Get key %d: %q, %v", i, val, err)
		}
	}
}

// TestGrayReleasePerDataType: VIP data advance more frequently than
// non-VIP (paper §3) — modeled as independent version streams that can
// sit at different active versions.
func TestGrayReleasePerDataType(t *testing.T) {
	d := newSystem(t)
	vip, err := workload.NewGenerator(workload.KVConfig{
		Keys: 30, KeyPrefix: "vip/", ValueSize: 512, DupRatio: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three fast VIP versions.
	for v := uint64(1); v <= 3; v++ {
		var entries []Entry
		vip.NextVersion(func(e workload.Entry) error {
			entries = append(entries, Entry{Key: e.Key, Value: e.Value, Stream: bifrost.StreamInverted})
			return nil
		})
		if _, err := d.PublishVersion(v, entries); err != nil {
			t.Fatalf("vip v%d: %v", v, err)
		}
		if err := d.ActivateEverywhere(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.DCs[d.Top.Regions[0].DCs[0]].ActiveVersion(); got != 3 {
		t.Fatalf("active = %d, want 3", got)
	}
	if vs := d.Versions(); len(vs) != 3 {
		t.Fatalf("retained = %v", vs)
	}
}

// TestStreamsArriveTogether: the paper's §2.2 requirement that the
// summary and inverted streams finish simultaneously — enforced by the
// 40/60 bandwidth reservation when the volumes are proportional.
func TestStreamsArriveTogether(t *testing.T) {
	d := newSystem(t)
	g := testGenerator(t, 120, 3000)
	var entries []Entry
	i := 0
	g.NextVersion(func(e workload.Entry) error {
		// 40% of the volume as summary, 60% as inverted.
		stream := bifrost.StreamInverted
		if i%5 < 2 {
			stream = bifrost.StreamSummary
		}
		i++
		entries = append(entries, Entry{Key: e.Key, Value: e.Value, Stream: stream})
		return nil
	})
	if _, err := d.PublishVersion(1, entries); err != nil {
		t.Fatal(err)
	}
	var lastSummary, lastInverted time.Duration
	for _, del := range d.Shipper.Deliveries() {
		if del.Slice.Stream == bifrost.StreamSummary && del.Arrived > lastSummary {
			lastSummary = del.Arrived
		}
		if del.Slice.Stream == bifrost.StreamInverted && del.Arrived > lastInverted {
			lastInverted = del.Arrived
		}
	}
	if lastSummary == 0 || lastInverted == 0 {
		t.Fatal("both streams must deliver")
	}
	skew := float64(lastSummary) / float64(lastInverted)
	if skew < 0.5 || skew > 2.0 {
		t.Fatalf("stream completion skew %.2f (summary %v vs inverted %v)",
			skew, lastSummary, lastInverted)
	}
}

// TestPublishFailsWhenQuorumUnreachable: with two of three replicas down
// in a group, applying a slice misses write quorum and the publish
// surfaces the error instead of silently under-replicating.
func TestPublishFailsWhenQuorumUnreachable(t *testing.T) {
	// Fail 2 of group 0's 3 nodes.
	cfg := testConfig()
	failNodes(&cfg, 1, 2)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g := testGenerator(t, 80, 512)
	_, err = d.PublishVersion(1, genEntries(t, g, bifrost.StreamInverted))
	if err == nil {
		t.Fatal("publish should fail when a DC cannot reach write quorum")
	}
	if !errors.Is(err, mint.ErrQuorum) {
		t.Fatalf("err = %v, want to wrap mint.ErrQuorum", err)
	}
}
