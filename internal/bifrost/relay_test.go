package bifrost

import (
	"testing"
	"time"

	"directload/internal/netsim"
)

// TestMonitorDrivenRelaySelection: with the centralized monitor
// reporting one relay's uplink as saturated, the shipper steers new
// slices to less-loaded relays (paper §2.2).
func TestMonitorDrivenRelaySelection(t *testing.T) {
	top := testTopology(t)
	sh := NewShipper(top, 1)
	region := top.Regions[0]

	// Saturate the builder->relay-0 uplink with background traffic for a
	// long time, letting the monitor observe it.
	hot := region.Relays[0]
	link, ok := top.Net.LinkBetween(top.Builder, hot)
	if !ok {
		t.Fatal("missing uplink")
	}
	top.Net.Send([]*netsim.Link{link}, netsim.ClassInverted, 50e6, nil) // ~50s of load
	top.Net.Run(10 * time.Second)                                       // monitor samples the saturation

	// Ship a burst of slices; count how many are routed via the hot relay
	// (observed through the relay->DC links' byte counters).
	for i := 0; i < 12; i++ {
		if err := sh.ShipToRegionDCs(makeSlice(1, StreamInverted, 200000), region, region.DCs, nil); err != nil {
			t.Fatal(err)
		}
	}
	top.Net.Run(0)
	hotBytes, _, _ := top.Net.LinkStats(hot, region.DCs[0])
	var coldBytes float64
	for _, relay := range region.Relays[1:] {
		b, _, _ := top.Net.LinkStats(relay, region.DCs[0])
		coldBytes += b
	}
	if hotBytes >= coldBytes {
		t.Fatalf("hot relay forwarded %.0f bytes vs %.0f on cold relays; monitor steering failed",
			hotBytes, coldBytes)
	}
}

// TestRoundRobinWithoutMonitor: with no monitor, relays are used in
// rotation so load spreads.
func TestRoundRobinWithoutMonitor(t *testing.T) {
	cfg := TopologyConfig{
		RegionNames:     []string{"solo"},
		RelaysPerRegion: 3,
		DCsPerRegion:    1,
		BuilderUplink:   1e6, BackboneBandwidth: 1e6, RegionalBandwidth: 1e6,
		MonitorInterval: 0, // disabled
	}
	top, err := BuildTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(top, 1)
	region := top.Regions[0]
	for i := 0; i < 6; i++ {
		if err := sh.ShipToRegionDCs(makeSlice(1, StreamInverted, 10000), region, region.DCs, nil); err != nil {
			t.Fatal(err)
		}
	}
	top.Net.Run(0)
	for _, relay := range region.Relays {
		b, _, _ := top.Net.LinkStats(top.Builder, relay)
		if b == 0 {
			t.Fatalf("relay %s never used under round-robin", relay)
		}
	}
}

// TestDeliveryRetriesCounted: retry counts surface in deliveries so
// operators can see flaky paths.
func TestDeliveryRetriesCounted(t *testing.T) {
	top := testTopology(t)
	sh := NewShipper(top, 99)
	sh.CorruptProb = 0.6
	var maxRetries int
	for i := 0; i < 10; i++ {
		sh.ShipToRegionDCs(makeSlice(1, StreamSummary, 5000), top.Regions[2], top.Regions[2].DCs, func(d Delivery) {
			if d.Retries > maxRetries {
				maxRetries = d.Retries
			}
		})
	}
	top.Net.Run(0)
	if maxRetries == 0 {
		t.Fatal("expected nonzero delivery retries at 60% corruption")
	}
}

// TestLinkDownDeliveryKeepsFirstHopRetries: a delivery whose relay→DC
// hop waits out a link outage still counts the retransmissions its
// builder→relay hop took.
func TestLinkDownDeliveryKeepsFirstHopRetries(t *testing.T) {
	top := testTopology(t)
	sh := NewShipper(top, 1)
	region := top.Regions[0]
	setDCLinks := func(down bool) {
		for _, dc := range region.DCs {
			for _, relay := range region.Relays {
				top.Net.SetLinkDown(relay, dc, down)
			}
		}
	}
	setDCLinks(true)
	top.Net.After(time.Minute, func(time.Duration) { setDCLinks(false) })
	// Corrupt the first arrival on the builder→relay hop, and nothing
	// after it: that hop takes exactly one retransmission.
	sh.CorruptProb = 1
	var poll func(time.Duration)
	poll = func(time.Duration) {
		if sh.Stats().CorruptionSeen > 0 {
			sh.CorruptProb = 0
			return
		}
		top.Net.After(10*time.Millisecond, poll)
	}
	top.Net.After(0, poll)

	var got []int
	if err := sh.ShipToRegionDCs(makeSlice(1, StreamSummary, 5000), region, region.DCs, func(d Delivery) {
		got = append(got, d.Retries)
	}); err != nil {
		t.Fatal(err)
	}
	top.Net.Run(10 * time.Minute)
	if len(got) != len(region.DCs) {
		t.Fatalf("delivered %d of %d", len(got), len(region.DCs))
	}
	// One retransmission on the first hop, one link-down resend on the
	// second.
	for _, r := range got {
		if r != 2 {
			t.Fatalf("delivery retries = %v, want 2 each", got)
		}
	}
}

// TestBackboneDetour: when the builder's uplinks to a region are
// saturated, a slice already cached by another region's relay is
// fetched over the backbone instead (paper §2.2).
func TestBackboneDetour(t *testing.T) {
	cfg := TopologyConfig{
		RegionNames:     []string{"north", "east"},
		RelaysPerRegion: 2,
		DCsPerRegion:    1,
		BuilderUplink:   1e6, BackboneBandwidth: 1e6, RegionalBandwidth: 1e6,
		ReserveStreams:  false,
		MonitorInterval: time.Second,
	}
	top, err := BuildTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShipper(top, 1)
	north, east := top.Regions[0], top.Regions[1]

	// Deliver to north first: its gateway relay now caches the slice.
	slice := makeSlice(1, StreamInverted, 100_000)
	if err := sh.ShipToRegionDCs(slice, north, north.DCs, nil); err != nil {
		t.Fatal(err)
	}
	top.Net.Run(0)

	// Saturate every builder->east uplink with long-running traffic and
	// let the monitor observe it.
	for _, relay := range east.Relays {
		link, _ := top.Net.LinkBetween(top.Builder, relay)
		top.Net.Send([]*netsim.Link{link}, netsim.ClassDefault, 100e6, nil)
	}
	top.Net.Run(20 * time.Second)

	delivered := 0
	if err := sh.ShipToRegionDCs(slice, east, east.DCs, func(d Delivery) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	top.Net.Run(2 * time.Minute)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if sh.Stats().BackboneDetours == 0 {
		t.Fatal("expected a backbone detour under builder congestion")
	}
	// Bytes actually crossed the inter-region link.
	backbone, _, ok := top.Net.LinkStats(north.Relays[0], east.Relays[0])
	if !ok || backbone == 0 {
		t.Fatalf("backbone carried %v bytes, want > 0", backbone)
	}
}
