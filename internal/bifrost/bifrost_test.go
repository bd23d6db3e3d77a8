package bifrost

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"directload/internal/netsim"
)

func TestDeduperFirstVersionNeverDedups(t *testing.T) {
	d := NewDeduper()
	for i := 0; i < 100; i++ {
		if d.Process([]byte(fmt.Sprintf("k%d", i)), []byte("same")) {
			t.Fatal("first version must never deduplicate")
		}
	}
	st := d.AdvanceVersion()
	if st.KeyRatio() != 0 {
		t.Fatalf("KeyRatio = %v", st.KeyRatio())
	}
}

func TestDeduperDetectsUnchangedValues(t *testing.T) {
	d := NewDeduper()
	for i := 0; i < 100; i++ {
		d.Process([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("value-%d", i)))
	}
	d.AdvanceVersion()
	// Second version: 70 unchanged, 30 modified (the paper's 70% figure).
	dedup := 0
	for i := 0; i < 100; i++ {
		val := fmt.Sprintf("value-%d", i)
		if i >= 70 {
			val = fmt.Sprintf("VALUE-%d", i)
		}
		if d.Process([]byte(fmt.Sprintf("k%d", i)), []byte(val)) {
			dedup++
		}
	}
	if dedup != 70 {
		t.Fatalf("deduped %d of 100, want 70", dedup)
	}
	st := d.AdvanceVersion()
	if r := st.KeyRatio(); r != 0.7 {
		t.Fatalf("KeyRatio = %v, want 0.7", r)
	}
	if r := st.ByteRatio(); r < 0.65 || r > 0.75 {
		t.Fatalf("ByteRatio = %v, want ~0.7", r)
	}
}

func TestDeduperComparesAgainstPreviousVersionOnly(t *testing.T) {
	d := NewDeduper()
	d.Process([]byte("k"), []byte("v1"))
	d.AdvanceVersion()
	if d.Process([]byte("k"), []byte("v2")) {
		t.Fatal("changed value must not dedup")
	}
	d.AdvanceVersion()
	// v3 equals v1 but NOT v2: must not dedup (comparison is only against
	// the immediately preceding version).
	if d.Process([]byte("k"), []byte("v1")) {
		t.Fatal("value equal to v1 but not v2 must not dedup")
	}
}

func TestDeduperNewKeys(t *testing.T) {
	d := NewDeduper()
	d.Process([]byte("old"), []byte("v"))
	d.AdvanceVersion()
	if d.Process([]byte("new"), []byte("v")) {
		t.Fatal("a key absent from the previous version must not dedup")
	}
}

func TestSignatureDistinct(t *testing.T) {
	if Sign([]byte("a")) == Sign([]byte("b")) {
		t.Fatal("different values must not collide (these two at least)")
	}
	if Sign([]byte("same")) != Sign([]byte("same")) {
		t.Fatal("equal values must have equal signatures")
	}
}

func TestSliceBuilderPacking(t *testing.T) {
	b := NewSliceBuilder(3, StreamSummary, 1000)
	for i := 0; i < 10; i++ {
		b.Add(Record{Key: []byte(fmt.Sprintf("key-%02d", i)), Version: 3, Value: make([]byte, 200)})
	}
	slices := b.Finish()
	if len(slices) < 3 {
		t.Fatalf("slices = %d, want >= 3 for 10*~220B at 1000B limit", len(slices))
	}
	total := 0
	for i, s := range slices {
		if s.Version != 3 || s.Stream != StreamSummary || s.Seq != i {
			t.Fatalf("slice %d meta = %+v", i, s)
		}
		if !s.Verify() {
			t.Fatalf("slice %d fails verification", i)
		}
		if s.Size() > 1000+300 {
			t.Fatalf("slice %d oversize: %d", i, s.Size())
		}
		total += len(s.Records)
	}
	if total != 10 {
		t.Fatalf("records across slices = %d, want 10", total)
	}
}

func TestSliceChecksumDetectsCorruption(t *testing.T) {
	b := NewSliceBuilder(1, StreamInverted, 0)
	b.Add(Record{Key: []byte("k"), Version: 1, Value: []byte("payload")})
	s := b.Finish()[0]
	if !s.Verify() {
		t.Fatal("fresh slice must verify")
	}
	s.Corrupt()
	if s.Verify() {
		t.Fatal("corrupted slice must fail verification")
	}
	s.Repair()
	if !s.Verify() {
		t.Fatal("repaired slice must verify")
	}
	// Content tampering is also detected.
	s.Records[0].Value[0] ^= 0xFF
	if s.Verify() {
		t.Fatal("tampered slice must fail verification")
	}
}

func testTopology(t *testing.T) *Topology {
	t.Helper()
	cfg := TopologyConfig{
		RegionNames:       []string{"north", "east", "south"},
		RelaysPerRegion:   4,
		DCsPerRegion:      2,
		BuilderUplink:     1e6,
		BackboneBandwidth: 1e6,
		RegionalBandwidth: 1e6,
		ReserveStreams:    true,
		MonitorInterval:   time.Second,
	}
	top, err := BuildTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestTopologyShape(t *testing.T) {
	top := testTopology(t)
	if len(top.Regions) != 3 {
		t.Fatalf("regions = %d", len(top.Regions))
	}
	if len(top.AllDCs()) != 6 {
		t.Fatalf("DCs = %d, want 6 (paper: six data centers)", len(top.AllDCs()))
	}
	// Backbone connectivity between regions.
	if _, ok := top.Net.LinkBetween(top.Regions[0].Relays[0], top.Regions[1].Relays[0]); !ok {
		t.Fatal("missing backbone link")
	}
}

func makeSlice(version uint64, stream StreamType, bytes int) *Slice {
	b := NewSliceBuilder(version, stream, 0)
	b.Add(Record{Key: []byte("k"), Version: version, Value: make([]byte, bytes)})
	return b.Finish()[0]
}

func TestShipToRegionDeliversToAllDCs(t *testing.T) {
	top := testTopology(t)
	sh := NewShipper(top, 1)
	slice := makeSlice(1, StreamInverted, 100000)
	var got []netsim.NodeID
	if err := sh.ShipToRegionDCs(slice, top.Regions[0], top.Regions[0].DCs, func(d Delivery) {
		got = append(got, d.DC)
	}); err != nil {
		t.Fatal(err)
	}
	top.Net.Run(0)
	if len(got) != 2 {
		t.Fatalf("deliveries = %v, want both DCs of the region", got)
	}
	if sh.MissRatio() != 0 {
		t.Fatalf("MissRatio = %v", sh.MissRatio())
	}
}

// TestShipEverywhere ships one slice to every DC of every region, as a
// publish of the inverted stream does.
func TestShipEverywhere(t *testing.T) {
	top := testTopology(t)
	sh := NewShipper(top, 1)
	slice := makeSlice(1, StreamSummary, 50000)
	seen := map[netsim.NodeID]bool{}
	for _, region := range top.Regions {
		if err := sh.ShipToRegionDCs(slice, region, region.DCs, func(d Delivery) { seen[d.DC] = true }); err != nil {
			t.Fatal(err)
		}
	}
	top.Net.Run(0)
	if len(seen) != 6 {
		t.Fatalf("delivered to %d DCs, want 6", len(seen))
	}
	st := sh.Stats()
	if st.Deliveries != 6 {
		t.Fatalf("Deliveries = %d", st.Deliveries)
	}
	// Payload counted once per delivery; network bytes >= payload because
	// of the relay hop fan-in.
	if st.BytesSent < st.PayloadBytes {
		t.Fatalf("BytesSent %v < PayloadBytes %v", st.BytesSent, st.PayloadBytes)
	}
}

func TestCorruptionTriggersRetransmit(t *testing.T) {
	top := testTopology(t)
	sh := NewShipper(top, 7)
	sh.CorruptProb = 0.5
	delivered := 0
	for i := 0; i < 20; i++ {
		slice := makeSlice(1, StreamInverted, 10000)
		if err := sh.ShipToRegionDCs(slice, top.Regions[0], top.Regions[0].DCs, func(d Delivery) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	top.Net.Run(0)
	st := sh.Stats()
	if st.CorruptionSeen == 0 || st.Retransmits == 0 {
		t.Fatalf("no corruption handled: %+v", st)
	}
	if delivered != 40 {
		t.Fatalf("delivered = %d, want 40 (every slice eventually lands)", delivered)
	}
	// Retransmissions inflate network bytes above payload bytes.
	if st.BytesSent <= st.PayloadBytes {
		t.Fatalf("retransmits should inflate BytesSent: %+v", st)
	}
}

func TestLinkFailureRecovery(t *testing.T) {
	top := testTopology(t)
	sh := NewShipper(top, 3)
	slice := makeSlice(1, StreamInverted, 500000)
	delivered := 0
	region := top.Regions[0]
	if err := sh.ShipToRegionDCs(slice, region, region.DCs, func(d Delivery) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	// Kill the first relay's DC links mid-flight; the retry path must
	// eventually deliver once they come back.
	top.Net.After(100*time.Millisecond, func(now time.Duration) {
		for _, dc := range region.DCs {
			for _, relay := range region.Relays {
				top.Net.SetLinkDown(relay, dc, true)
			}
		}
	})
	top.Net.After(60*time.Second, func(now time.Duration) {
		for _, dc := range region.DCs {
			for _, relay := range region.Relays {
				top.Net.SetLinkDown(relay, dc, false)
			}
		}
	})
	top.Net.Run(10 * time.Minute)
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 after link recovery", delivered)
	}
}

func TestMissRatioDeadline(t *testing.T) {
	top := testTopology(t)
	sh := NewShipper(top, 1)
	sh.Deadline = 1 * time.Second // tight deadline to force misses
	slice := makeSlice(1, StreamInverted, 10_000_000)
	if err := sh.ShipToRegionDCs(slice, top.Regions[0], top.Regions[0].DCs, nil); err != nil {
		t.Fatal(err)
	}
	top.Net.Run(0)
	if sh.MissRatio() == 0 {
		t.Fatal("10 MB over 1 MB/s links must miss a 1 s deadline")
	}
}

func TestStreamsShareLinkByReservation(t *testing.T) {
	// Summary and inverted slices of proportional size should complete
	// simultaneously on a reserved link, per the paper's design goal that
	// "individual data streams arrive at all data centers simultaneously".
	top := testTopology(t)
	sh := NewShipper(top, 1)
	var sumAt, invAt time.Duration
	sum := makeSlice(1, StreamSummary, 400_000)
	inv := makeSlice(1, StreamInverted, 600_000)
	region := top.Regions[1]
	// Pin both to the same relay by using a monitor-free round-robin:
	// easier to just ship everywhere and compare totals.
	sh.ShipToRegionDCs(sum, region, region.DCs, func(d Delivery) {
		if d.Arrived > sumAt {
			sumAt = d.Arrived
		}
	})
	sh.ShipToRegionDCs(inv, region, region.DCs, func(d Delivery) {
		if d.Arrived > invAt {
			invAt = d.Arrived
		}
	})
	top.Net.Run(0)
	if sumAt == 0 || invAt == 0 {
		t.Fatal("streams not delivered")
	}
	ratio := float64(sumAt) / float64(invAt)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("stream completion skew too large: summary=%v inverted=%v", sumAt, invAt)
	}
}

func TestQuickSliceChecksumRoundTrip(t *testing.T) {
	f := func(keys [][]byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewSliceBuilder(uint64(seed), StreamSummary, 1<<20)
		for _, k := range keys {
			if len(k) == 0 {
				continue
			}
			val := make([]byte, rng.Intn(100))
			rng.Read(val)
			b.Add(Record{Key: k, Version: 1, Value: val, Dedup: rng.Intn(2) == 0})
		}
		for _, s := range b.Finish() {
			if !s.Verify() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
