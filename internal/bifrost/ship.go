package bifrost

import (
	"fmt"
	"math/rand"
	"time"

	"directload/internal/netsim"
)

// Region is one of the three regional deployments: a relay group of
// 20-30 nodes caching and forwarding index data to the two data centers
// in the same region (paper §2.2).
type Region struct {
	Name   string
	Relays []netsim.NodeID
	DCs    []netsim.NodeID
}

// Topology is the national fabric: one builder data center (data
// center#0), three regions, backbone links between every pair of relay
// groups, and intra-region links from relays to data centers.
type Topology struct {
	Net     *netsim.Net
	Builder netsim.NodeID
	Regions []Region
	Monitor *netsim.Monitor
}

// TopologyConfig sizes the simulated fabric.
type TopologyConfig struct {
	RegionNames     []string // default: north, east, south
	RelaysPerRegion int      // paper: 20-30
	DCsPerRegion    int      // paper: 2
	// BuilderUplink is the builder→relay bandwidth per link (bytes/s).
	BuilderUplink float64
	// BackboneBandwidth is the relay↔relay inter-region bandwidth.
	BackboneBandwidth float64
	// RegionalBandwidth is the relay→DC bandwidth.
	RegionalBandwidth float64
	// ReserveStreams applies the paper's 40/60 split on every link.
	ReserveStreams bool
	// MonitorInterval enables the centralized monitor when > 0.
	MonitorInterval time.Duration
}

// DefaultTopologyConfig mirrors the paper's deployment at simulation
// scale: 1 Gbps-class links (125 MB/s), 24 relays, 2 DCs per region.
func DefaultTopologyConfig() TopologyConfig {
	return TopologyConfig{
		RegionNames:       []string{"north", "east", "south"},
		RelaysPerRegion:   24,
		DCsPerRegion:      2,
		BuilderUplink:     125e6,
		BackboneBandwidth: 125e6,
		RegionalBandwidth: 125e6,
		ReserveStreams:    true,
		MonitorInterval:   time.Second,
	}
}

// classReservation returns the paper's 40/60 reservation map.
func classReservation() map[netsim.Class]float64 {
	return map[netsim.Class]float64{
		netsim.ClassSummary:  0.4,
		netsim.ClassInverted: 0.6,
	}
}

// streamClass maps a stream type onto its traffic class.
func streamClass(t StreamType) netsim.Class {
	if t == StreamSummary {
		return netsim.ClassSummary
	}
	return netsim.ClassInverted
}

// BuildTopology constructs the fabric on a fresh network.
func BuildTopology(cfg TopologyConfig) (*Topology, error) {
	if len(cfg.RegionNames) == 0 {
		cfg = DefaultTopologyConfig()
	}
	n := netsim.New()
	top := &Topology{Net: n, Builder: "builder"}
	n.AddNode(top.Builder)
	var reservation map[netsim.Class]float64
	if cfg.ReserveStreams {
		reservation = classReservation()
	}
	for _, name := range cfg.RegionNames {
		region := Region{Name: name}
		for i := 0; i < cfg.RelaysPerRegion; i++ {
			id := netsim.NodeID(fmt.Sprintf("%s-relay-%02d", name, i))
			n.AddNode(id)
			region.Relays = append(region.Relays, id)
			if _, err := n.AddLink(top.Builder, id, cfg.BuilderUplink, reservation); err != nil {
				return nil, err
			}
		}
		for i := 0; i < cfg.DCsPerRegion; i++ {
			id := netsim.NodeID(fmt.Sprintf("%s-dc-%d", name, i+1))
			n.AddNode(id)
			region.DCs = append(region.DCs, id)
			for _, relay := range region.Relays {
				if _, err := n.AddLink(relay, id, cfg.RegionalBandwidth, reservation); err != nil {
					return nil, err
				}
			}
		}
		top.Regions = append(top.Regions, region)
	}
	// Backbone: every pair of relay groups interconnects via their
	// first relays (both directions).
	for i := range top.Regions {
		for j := range top.Regions {
			if i == j {
				continue
			}
			from := top.Regions[i].Relays[0]
			to := top.Regions[j].Relays[0]
			if _, err := n.AddLink(from, to, cfg.BackboneBandwidth, reservation); err != nil {
				return nil, err
			}
		}
	}
	if cfg.MonitorInterval > 0 {
		top.Monitor = netsim.NewMonitor(n, cfg.MonitorInterval, 0.3)
	}
	return top, nil
}

// AllDCs lists every data center in the fabric.
func (t *Topology) AllDCs() []netsim.NodeID {
	var out []netsim.NodeID
	for _, r := range t.Regions {
		out = append(out, r.DCs...)
	}
	return out
}

// --- shipping --------------------------------------------------------------

// Delivery records one slice's arrival at one data center.
type Delivery struct {
	Slice     *Slice
	DC        netsim.NodeID
	Available time.Duration // when the slice was ready at the builder
	Arrived   time.Duration
	Retries   int
}

// Late reports whether the delivery exceeded the deadline (the paper's
// miss criterion: more than one hour from availability to arrival).
func (d Delivery) Late(deadline time.Duration) bool {
	return d.Arrived-d.Available > deadline
}

// ShipperStats aggregates transmission results.
type ShipperStats struct {
	SlicesSent     int64
	Deliveries     int64
	Retransmits    int64
	BytesSent      float64 // network bytes including retransmissions
	PayloadBytes   float64 // slice bytes delivered (once per DC)
	CorruptionSeen int64
	Repairs        int64
	// BackboneDetours counts slices sourced from a peer region's relay
	// instead of the congested builder uplink.
	BackboneDetours int64
}

// Shipper drives slices from the builder through relay groups to every
// data center, re-verifying checksums at each hop and retransmitting on
// corruption.
type Shipper struct {
	Top *Topology
	// CorruptProb is the per-hop probability of in-flight corruption
	// (failure injection for Fig. 10b).
	CorruptProb float64
	// MaxRetries bounds per-hop retransmissions.
	MaxRetries int
	// Deadline is the miss-ratio deadline (paper: one hour).
	Deadline time.Duration

	rng        *rand.Rand
	stats      ShipperStats
	deliveries []Delivery
	relayRR    map[string]int // per-region round-robin cursor
	// holders tracks which relays cached each slice ("20-30 relay nodes
	// caching and relaying", paper §2.2): when a builder uplink is
	// congested, the slice can be sourced from a peer region's relay
	// over the backbone instead.
	holders map[*Slice][]netsim.NodeID
}

// NewShipper creates a shipper with deterministic failure injection.
func NewShipper(top *Topology, seed int64) *Shipper {
	return &Shipper{
		Top:        top,
		MaxRetries: 4,
		Deadline:   time.Hour,
		rng:        rand.New(rand.NewSource(seed)),
		relayRR:    make(map[string]int),
		holders:    make(map[*Slice][]netsim.NodeID),
	}
}

// pickRelay selects the relay for a region: the monitor's least-loaded
// candidate when available, round-robin otherwise.
func (s *Shipper) pickRelay(region Region) netsim.NodeID {
	if s.Top.Monitor != nil {
		best := region.Relays[0]
		bestAvail := -1.0
		// Sample a few candidates round-robin to avoid O(relays) scans.
		start := s.relayRR[region.Name]
		for k := 0; k < 4; k++ {
			relay := region.Relays[(start+k)%len(region.Relays)]
			avail := s.Top.Monitor.PredictedAvailable(s.Top.Net, s.Top.Builder, relay)
			if avail > bestAvail {
				best, bestAvail = relay, avail
			}
		}
		s.relayRR[region.Name] = (start + 1) % len(region.Relays)
		return best
	}
	i := s.relayRR[region.Name]
	s.relayRR[region.Name] = (i + 1) % len(region.Relays)
	return region.Relays[i]
}

// ShipToRegion schedules delivery of one slice to every DC of the region:
// builder → relay, then relay → each DC. Each hop verifies the checksum
// and retransmits on corruption, up to MaxRetries.
func (s *Shipper) ShipToRegion(slice *Slice, region Region, onDelivered func(d Delivery)) error {
	return s.ShipToRegionDCs(slice, region, region.DCs, onDelivered)
}

// ShipToRegionDCs is ShipToRegion restricted to a subset of the region's
// data centers — the paper stores summary indices in only one DC per
// region while inverted indices go to all six.
func (s *Shipper) ShipToRegionDCs(slice *Slice, region Region, dcs []netsim.NodeID, onDelivered func(d Delivery)) error {
	source, relay := s.pickSource(slice, region)
	available := s.Top.Net.Now()
	s.stats.SlicesSent++
	return s.sendHop(slice, source, relay, 0, func(retries int, now time.Duration) {
		s.holders[slice] = append(s.holders[slice], relay)
		for _, dc := range dcs {
			dc := dc
			err := s.sendHop(slice, relay, dc, 0, func(moreRetries int, now time.Duration) {
				d := Delivery{
					Slice: slice, DC: dc,
					Available: available, Arrived: now,
					Retries: retries + moreRetries,
				}
				s.deliveries = append(s.deliveries, d)
				s.stats.Deliveries++
				s.stats.PayloadBytes += float64(slice.Size())
				if onDelivered != nil {
					onDelivered(d)
				}
			})
			if err != nil {
				// Link down right now: retry after a pause.
				s.retryLater(slice, relay, dc, available, onDelivered)
			}
		}
	})
}

// retryLater reschedules a failed hop after a back-off.
func (s *Shipper) retryLater(slice *Slice, from, to netsim.NodeID, available time.Duration, onDelivered func(d Delivery)) {
	s.Top.Net.After(30*time.Second, func(now time.Duration) {
		err := s.sendHop(slice, from, to, 1, func(retries int, now time.Duration) {
			d := Delivery{Slice: slice, DC: to, Available: available, Arrived: now, Retries: retries}
			s.deliveries = append(s.deliveries, d)
			s.stats.Deliveries++
			s.stats.PayloadBytes += float64(slice.Size())
			if onDelivered != nil {
				onDelivered(d)
			}
		})
		if err != nil {
			s.retryLater(slice, from, to, available, onDelivered)
		}
	})
}

// sendHop transfers the slice over one hop; on arrival the receiver
// recalculates the checksum and, if the slice was damaged in flight,
// requests a retransmission (paper §3).
func (s *Shipper) sendHop(slice *Slice, from, to netsim.NodeID, attempt int, onOK func(retries int, now time.Duration)) error {
	_, err := s.Top.Net.SendBetween(from, to, streamClass(slice.Stream), float64(slice.Size()),
		func(tr *netsim.Transfer, now time.Duration) {
			if tr.Failed != nil {
				s.retryOrRepair(slice, from, to, attempt, onOK)
				return
			}
			s.stats.BytesSent += tr.Size
			// Simulated in-flight corruption, detected by the receiver's
			// checksum pass.
			if s.CorruptProb > 0 && s.rng.Float64() < s.CorruptProb {
				slice.Corrupt()
			}
			if !slice.Verify() {
				s.stats.CorruptionSeen++
				slice.Repair()
				s.stats.Retransmits++
				s.retryOrRepair(slice, from, to, attempt, onOK)
				return
			}
			onOK(attempt, now)
		})
	return err
}

// retryOrRepair retransmits promptly while the attempt budget lasts, then
// falls back to the slow "repair process" the paper mentions: a warning
// is raised and the slice is re-sent after a long back-off with a fresh
// budget. Deliveries that go through repair are typically late, which is
// exactly how misses accrue in Fig. 10b.
func (s *Shipper) retryOrRepair(slice *Slice, from, to netsim.NodeID, attempt int, onOK func(retries int, now time.Duration)) {
	if attempt < s.MaxRetries {
		s.retryHop(slice, from, to, attempt+1, onOK)
		return
	}
	s.stats.Repairs++
	s.Top.Net.After(2*time.Minute, func(now time.Duration) {
		if err := s.sendHop(slice, from, to, 0, onOK); err != nil {
			s.retryLater2(slice, from, to, 0, onOK)
		}
	})
}

// retryHop schedules a hop retransmission immediately (virtual time).
func (s *Shipper) retryHop(slice *Slice, from, to netsim.NodeID, attempt int, onOK func(retries int, now time.Duration)) {
	s.Top.Net.After(time.Second, func(now time.Duration) {
		if err := s.sendHop(slice, from, to, attempt, onOK); err != nil {
			s.retryLater2(slice, from, to, attempt, onOK)
		}
	})
}

func (s *Shipper) retryLater2(slice *Slice, from, to netsim.NodeID, attempt int, onOK func(retries int, now time.Duration)) {
	s.Top.Net.After(30*time.Second, func(now time.Duration) {
		if err := s.sendHop(slice, from, to, attempt, onOK); err != nil {
			s.retryLater2(slice, from, to, attempt, onOK)
		}
	})
}

// pickSource chooses where the region fetches the slice from: the
// builder by default, or — when the monitor predicts the builder uplink
// is substantially more congested than the backbone — a peer region's
// relay that already caches the slice (paper §2.2: "we have
// opportunities to optimize the data transmission by flexibly arranging
// data streams to circumvent the channels sustaining high traffic").
// Backbone detours enter through the region's gateway relay (the one
// the inter-region links terminate at).
func (s *Shipper) pickSource(slice *Slice, region Region) (source, relay netsim.NodeID) {
	relay = s.pickRelay(region)
	source = s.Top.Builder
	if s.Top.Monitor == nil {
		return source, relay
	}
	gateway := region.Relays[0]
	builderBW := s.Top.Monitor.PredictedAvailable(s.Top.Net, s.Top.Builder, relay)
	for _, holder := range s.holders[slice] {
		if holder == gateway {
			continue // already here
		}
		if _, ok := s.Top.Net.LinkBetween(holder, gateway); !ok {
			continue
		}
		peerBW := s.Top.Monitor.PredictedAvailable(s.Top.Net, holder, gateway)
		if peerBW > 2*builderBW {
			s.stats.BackboneDetours++
			return holder, gateway
		}
	}
	return source, relay
}

// ShipEverywhere ships the slice to all regions.
func (s *Shipper) ShipEverywhere(slice *Slice, onDelivered func(d Delivery)) error {
	for _, region := range s.Top.Regions {
		if err := s.ShipToRegion(slice, region, onDelivered); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a copy of the shipper counters.
func (s *Shipper) Stats() ShipperStats { return s.stats }

// Deliveries returns all recorded deliveries.
func (s *Shipper) Deliveries() []Delivery {
	return append([]Delivery(nil), s.deliveries...)
}

// MissRatio computes the fraction of deliveries that exceeded the
// deadline — Fig. 10b's metric (SLO: 0.6%, DirectLoad achieves 0.24%).
func (s *Shipper) MissRatio() float64 {
	if len(s.deliveries) == 0 {
		return 0
	}
	late := 0
	for _, d := range s.deliveries {
		if d.Late(s.Deadline) {
			late++
		}
	}
	return float64(late) / float64(len(s.deliveries))
}
