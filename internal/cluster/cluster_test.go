package cluster

import (
	"errors"

	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/bifrost"
	"directload/internal/core"
	"directload/internal/mint"
	"directload/internal/workload"
)

func testConfig() Config {
	return Config{
		Topology: bifrost.TopologyConfig{
			RegionNames:       []string{"north", "east", "south"},
			RelaysPerRegion:   3,
			DCsPerRegion:      2,
			BuilderUplink:     50e6,
			BackboneBandwidth: 50e6,
			RegionalBandwidth: 50e6,
			ReserveStreams:    true,
			MonitorInterval:   time.Second,
		},
		Mint: mint.Config{
			Groups:        2,
			NodesPerGroup: 3,
			Replicas:      3,
			NodeCapacity:  128 << 20,
			Factory: mint.QinDBFactory(core.Options{
				AOF:  aof.Config{FileSize: 1 << 20, GCThreshold: 0.25},
				Seed: 1,
			}),
		},
		SliceLimit:     256 << 10,
		RetainVersions: 4,
		DedupEnabled:   true,
		Seed:           1,
	}
}

func newSystem(t *testing.T) *DirectLoad {
	t.Helper()
	d, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// genEntries produces one version's entries from a shared generator.
func genEntries(t *testing.T, g *workload.Generator, stream bifrost.StreamType) []Entry {
	t.Helper()
	var out []Entry
	if err := g.NextVersion(func(e workload.Entry) error {
		out = append(out, Entry{Key: e.Key, Value: e.Value, Stream: stream})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func testGenerator(t *testing.T, keys, valSize int) *workload.Generator {
	t.Helper()
	g, err := workload.NewGenerator(workload.KVConfig{
		Keys: keys, ValueSize: valSize, DupRatio: 0.7, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// stored counts how many of g's first n keys dc's store holds at version.
func stored(dc *DataCenter, g *workload.Generator, n int, version uint64) int {
	held := 0
	for i := 0; i < n; i++ {
		if _, err := dc.Store.Get(g.Key(i), version); err == nil {
			held++
		}
	}
	return held
}

func TestPublishLoadsAllDCs(t *testing.T) {
	d := newSystem(t)
	g := testGenerator(t, 100, 2048)
	rep, err := d.PublishVersion(1, genEntries(t, g, bifrost.StreamInverted))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Keys != 100 || rep.UpdateTime <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	for _, dc := range d.DCs {
		if dc.State(1) != VersionReady {
			t.Fatalf("%s state = %v", dc.ID, dc.State(1))
		}
	}
	// Inverted entries are stored in all six DCs.
	for id, dc := range d.DCs {
		if got := stored(dc, g, 100, 1); got != 100 {
			t.Fatalf("DC %s stored %d of 100 keys", id, got)
		}
	}
}

func TestSummaryOnlyInThreeDCs(t *testing.T) {
	d := newSystem(t)
	g := testGenerator(t, 60, 1024)
	if _, err := d.PublishVersion(1, genEntries(t, g, bifrost.StreamSummary)); err != nil {
		t.Fatal(err)
	}
	withData, without := 0, 0
	for _, dc := range d.DCs {
		if stored(dc, g, 60, 1) > 0 {
			withData++
			if !dc.StoresSummary {
				t.Fatalf("%s stores summary but should not", dc.ID)
			}
		} else {
			without++
		}
	}
	if withData != 3 || without != 3 {
		t.Fatalf("summary DCs = %d, want 3 (paper: summary in three of six)", withData)
	}
}

func TestDedupReducesWireBytes(t *testing.T) {
	d := newSystem(t)
	g := testGenerator(t, 200, 4096)
	rep1, err := d.PublishVersion(1, genEntries(t, g, bifrost.StreamInverted))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.WireBytes != rep1.PayloadBytes {
		t.Fatalf("v1 should not dedup: wire %d payload %d", rep1.WireBytes, rep1.PayloadBytes)
	}
	rep2, err := d.PublishVersion(2, genEntries(t, g, bifrost.StreamInverted))
	if err != nil {
		t.Fatal(err)
	}
	saving := 1 - float64(rep2.WireBytes)/float64(rep2.PayloadBytes)
	if saving < 0.55 || saving > 0.8 {
		t.Fatalf("wire saving = %.2f, want ~0.7 (paper: 63%% bandwidth saved)", saving)
	}
	if rep2.Dedup.KeyRatio() < 0.6 {
		t.Fatalf("dedup key ratio = %v", rep2.Dedup.KeyRatio())
	}
	// Deduplicated version must still serve every key at every DC.
	if err := d.ActivateEverywhere(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i += 17 {
		key := g.Key(i)
		for id := range d.DCs {
			val, err := d.Get(id, key)
			if err != nil {
				t.Fatalf("Get(%s) at %s: %v", key, id, err)
			}
			if string(val) != string(g.Value(i)) {
				t.Fatalf("value mismatch for %s at %s", key, id)
			}
		}
	}
}

func TestDedupDisabledBaseline(t *testing.T) {
	cfg := testConfig()
	cfg.DedupEnabled = false
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g := testGenerator(t, 100, 2048)
	d.PublishVersion(1, func() []Entry {
		var out []Entry
		g.NextVersion(func(e workload.Entry) error {
			out = append(out, Entry{Key: e.Key, Value: e.Value, Stream: bifrost.StreamInverted})
			return nil
		})
		return out
	}())
	var out []Entry
	g.NextVersion(func(e workload.Entry) error {
		out = append(out, Entry{Key: e.Key, Value: e.Value, Stream: bifrost.StreamInverted})
		return nil
	})
	rep, err := d.PublishVersion(2, out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WireBytes != rep.PayloadBytes {
		t.Fatalf("baseline must not dedup: wire %d payload %d", rep.WireBytes, rep.PayloadBytes)
	}
}

func TestVersionRetention(t *testing.T) {
	d := newSystem(t)
	g := testGenerator(t, 30, 512)
	for v := uint64(1); v <= 6; v++ {
		if _, err := d.PublishVersion(v, genEntries(t, g, bifrost.StreamInverted)); err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
	}
	vs := d.Versions()
	if len(vs) != 4 || vs[0] != 3 || vs[3] != 6 {
		t.Fatalf("Versions = %v, want [3 4 5 6] (paper: at most four versions)", vs)
	}
}

func TestGrayReleaseLifecycle(t *testing.T) {
	d := newSystem(t)
	g := testGenerator(t, 50, 1024)
	d.PublishVersion(1, genEntries(t, g, bifrost.StreamInverted))
	if err := d.ActivateEverywhere(1); err != nil {
		t.Fatal(err)
	}
	d.PublishVersion(2, genEntries(t, g, bifrost.StreamInverted))

	grayDC := d.Top.Regions[0].DCs[0]
	if err := d.GrayRelease(2, grayDC); err != nil {
		t.Fatal(err)
	}
	if d.DCs[grayDC].ActiveVersion() != 2 {
		t.Fatal("gray DC not on v2")
	}
	for id, dc := range d.DCs {
		if id != grayDC && dc.ActiveVersion() != 1 {
			t.Fatalf("%s advanced without gray approval", id)
		}
	}
	// Cross-region inconsistency during gray release stays small thanks
	// to the 70% value overlap between versions.
	keys := make([][]byte, 50)
	for i := range keys {
		keys[i] = g.Key(i)
	}
	inc := d.AuditConsistency(keys)
	if inc > 0.45 {
		t.Fatalf("gray inconsistency = %.3f, too high", inc)
	}
	// Promote everywhere: inconsistency collapses to zero.
	if err := d.ActivateEverywhere(2); err != nil {
		t.Fatal(err)
	}
	if inc := d.AuditConsistency(keys); inc != 0 {
		t.Fatalf("post-activation inconsistency = %v, want 0", inc)
	}
}

func TestRollback(t *testing.T) {
	d := newSystem(t)
	g := testGenerator(t, 40, 512)
	d.PublishVersion(1, genEntries(t, g, bifrost.StreamInverted))
	d.ActivateEverywhere(1)
	d.PublishVersion(2, genEntries(t, g, bifrost.StreamInverted))
	grayDC := d.Top.Regions[1].DCs[1]
	if err := d.GrayRelease(2, grayDC); err != nil {
		t.Fatal(err)
	}
	// Malfunction discovered: roll the gray DC back to v1.
	if err := d.Rollback(2, 1); err != nil {
		t.Fatal(err)
	}
	if d.DCs[grayDC].ActiveVersion() != 1 {
		t.Fatal("rollback did not restore v1")
	}
	if err := d.Rollback(2, 1); !errors.Is(err, ErrNotGray) {
		t.Fatalf("double rollback err = %v", err)
	}
}

func TestLifecycleErrors(t *testing.T) {
	d := newSystem(t)
	if err := d.GrayRelease(1, "bogus-dc"); !errors.Is(err, ErrUnknownDC) {
		t.Fatalf("unknown DC err = %v", err)
	}
	someDC := d.Top.Regions[0].DCs[0]
	if err := d.GrayRelease(9, someDC); !errors.Is(err, ErrVersionMissing) {
		t.Fatalf("missing version err = %v", err)
	}
	if err := d.ActivateEverywhere(9); !errors.Is(err, ErrVersionMissing) {
		t.Fatalf("activate missing err = %v", err)
	}
	if _, err := d.Get("bogus-dc", []byte("k")); !errors.Is(err, ErrUnknownDC) {
		t.Fatalf("Get unknown DC err = %v", err)
	}
	if _, err := d.Get(someDC, []byte("k")); !errors.Is(err, ErrVersionMissing) {
		t.Fatalf("Get with no active version err = %v", err)
	}
}

func TestCorruptionInjectionStillDelivers(t *testing.T) {
	cfg := testConfig()
	cfg.CorruptProb = 0.15
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	g := testGenerator(t, 80, 2048)
	var out []Entry
	g.NextVersion(func(e workload.Entry) error {
		out = append(out, Entry{Key: e.Key, Value: e.Value, Stream: bifrost.StreamInverted})
		return nil
	})
	rep, err := d.PublishVersion(1, out)
	if err != nil {
		t.Fatal(err)
	}
	st := d.Shipper.Stats()
	if st.CorruptionSeen == 0 {
		t.Fatal("corruption injection did nothing")
	}
	if rep.UpdateTime <= 0 {
		t.Fatal("no update time recorded")
	}
	for _, dc := range d.DCs {
		if dc.State(1) != VersionReady {
			t.Fatalf("%s did not finish despite retransmits", dc.ID)
		}
	}
}

func TestUpdateTimeTracksDedupRatio(t *testing.T) {
	// The Fig. 9 anti-correlation: higher dedup ratio -> shorter update.
	d := newSystem(t)
	g, err := workload.NewGenerator(workload.KVConfig{
		Keys: 150, ValueSize: 8192, DupRatio: 0, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	publish := func(v uint64, ratio float64) UpdateReport {
		var out []Entry
		g.NextVersionRatio(ratio, func(e workload.Entry) error {
			out = append(out, Entry{Key: e.Key, Value: e.Value, Stream: bifrost.StreamInverted})
			return nil
		})
		rep, err := d.PublishVersion(v, out)
		if err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
		return rep
	}
	publish(1, 0)
	low := publish(2, 0.2)  // little redundancy: big transfer
	high := publish(3, 0.9) // high redundancy: small transfer
	if high.UpdateTime >= low.UpdateTime {
		t.Fatalf("update times: dedup 0.9 -> %v, dedup 0.2 -> %v; want anti-correlation",
			high.UpdateTime, low.UpdateTime)
	}
}

func TestPublishManyKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := newSystem(t)
	g := testGenerator(t, 500, 4096)
	for v := uint64(1); v <= 3; v++ {
		entries := genEntries(t, g, bifrost.StreamInverted)
		// Mix in a summary stream for the same keys.
		sum := make([]Entry, 0, len(entries))
		for _, e := range entries {
			sum = append(sum, Entry{
				Key:    append([]byte("s/"), e.Key...),
				Value:  e.Value[:128],
				Stream: bifrost.StreamSummary,
			})
		}
		if _, err := d.PublishVersion(v, append(entries, sum...)); err != nil {
			t.Fatalf("v%d: %v", v, err)
		}
	}
	if err := d.ActivateEverywhere(3); err != nil {
		t.Fatal(err)
	}
	val, err := d.Get(d.Top.Regions[2].DCs[1], g.Key(123))
	if err != nil || len(val) == 0 {
		t.Fatalf("final read: %v", err)
	}
}
