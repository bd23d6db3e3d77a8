// Package cluster assembles the complete DirectLoad system: the builder
// data center feeds versioned index data through Bifrost deduplication
// and slicing, the shipper moves slices across the simulated national
// fabric, and each regional data center applies arriving records into its
// Mint store (QinDB nodes). On top sits the version lifecycle of paper
// §1.2/§3: at most four retained versions, gray release on a single data
// center, cross-region consistency audit, and rollback.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"directload/internal/bifrost"
	"directload/internal/mint"
	"directload/internal/netsim"
)

// Orchestration errors.
var (
	ErrUnknownDC      = errors.New("cluster: unknown data center")
	ErrVersionMissing = errors.New("cluster: version not prepared")
	ErrNotGray        = errors.New("cluster: version not in gray release")
)

// Config assembles a DirectLoad deployment.
type Config struct {
	Topology bifrost.TopologyConfig
	Mint     mint.Config
	// SliceLimit bounds slice size in bytes (paper ships GB-scale slices
	// hourly; simulations use smaller ones).
	SliceLimit int64
	// RetainVersions caps stored versions per node (paper: 4).
	RetainVersions int
	// DedupEnabled switches Bifrost deduplication (off = the "without
	// DirectLoad" baseline of Fig. 10a).
	DedupEnabled bool
	// CorruptProb injects per-hop corruption (Fig. 10b failure model).
	CorruptProb float64
	// Seed drives failure injection.
	Seed int64
}

// DefaultConfig returns a small, structurally faithful deployment.
func DefaultConfig() Config {
	top := bifrost.DefaultTopologyConfig()
	top.RelaysPerRegion = 6
	m := mint.DefaultConfig()
	m.Groups = 2
	m.NodesPerGroup = 3
	m.NodeCapacity = 256 << 20
	return Config{
		Topology:       top,
		Mint:           m,
		SliceLimit:     4 << 20,
		RetainVersions: 4,
		DedupEnabled:   true,
		Seed:           1,
	}
}

// VersionState tracks a version's lifecycle at one data center.
type VersionState int

// Version lifecycle states.
const (
	VersionPending VersionState = iota // slices still arriving
	VersionReady                       // fully loaded, not serving
	VersionActive                      // serving queries
)

// DataCenter is one regional deployment: a Mint cluster plus version
// bookkeeping.
type DataCenter struct {
	ID     netsim.NodeID
	Region string
	Store  *mint.Cluster
	// StoresSummary: the paper keeps summary indices in only three of
	// the six data centers.
	StoresSummary bool

	state    map[uint64]VersionState
	expected map[uint64]int // slices expected for the version
	arrived  map[uint64]int
	active   uint64
	applyErr error
}

// State returns the lifecycle state of a version at this DC.
func (dc *DataCenter) State(version uint64) VersionState { return dc.state[version] }

// ActiveVersion returns the serving version (0 = none).
func (dc *DataCenter) ActiveVersion() uint64 { return dc.active }

// DirectLoad is the whole system.
type DirectLoad struct {
	cfg     Config
	Top     *bifrost.Topology
	Shipper *bifrost.Shipper
	Deduper *bifrost.Deduper
	DCs     map[netsim.NodeID]*DataCenter

	versions []uint64 // published versions in order
}

// New builds the fabric and one Mint cluster per data center.
func New(cfg Config) (*DirectLoad, error) {
	if cfg.SliceLimit <= 0 {
		cfg.SliceLimit = 4 << 20
	}
	if cfg.RetainVersions <= 0 {
		cfg.RetainVersions = 4
	}
	top, err := bifrost.BuildTopology(cfg.Topology)
	if err != nil {
		return nil, err
	}
	d := &DirectLoad{
		cfg:     cfg,
		Top:     top,
		Shipper: bifrost.NewShipper(top, cfg.Seed),
		Deduper: bifrost.NewDeduper(),
		DCs:     make(map[netsim.NodeID]*DataCenter),
	}
	d.Shipper.CorruptProb = cfg.CorruptProb
	for _, region := range top.Regions {
		for i, id := range region.DCs {
			store, err := mint.New(cfg.Mint)
			if err != nil {
				return nil, err
			}
			d.DCs[id] = &DataCenter{
				ID:            id,
				Region:        region.Name,
				Store:         store,
				StoresSummary: i == 0, // first DC of each region
				state:         make(map[uint64]VersionState),
				expected:      make(map[uint64]int),
				arrived:       make(map[uint64]int),
			}
		}
	}
	return d, nil
}

// Close shuts every data center down and reports every failure.
func (d *DirectLoad) Close() error {
	var errs []error
	for _, dc := range d.DCs {
		if err := dc.Store.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Entry is one index record to publish.
type Entry struct {
	Key    []byte
	Value  []byte
	Stream bifrost.StreamType
}

// UpdateReport summarizes one version's publication — the raw material of
// Figs. 9 and 10.
type UpdateReport struct {
	Version    uint64
	UpdateTime time.Duration // first record generated -> all DCs ready
	Dedup      bifrost.DedupStats
	Keys       int
	// PayloadBytes is the pre-dedup volume; WireBytes what was actually
	// offered to the network (post-dedup).
	PayloadBytes int64
	WireBytes    int64
	MissRatio    float64
	// StorageByDC is per-data-center apply time (device time, see
	// mint.Cluster.Put); the slowest DC is the storage-side critical path
	// of the update.
	StorageByDC map[netsim.NodeID]time.Duration
	// ReadyAt records when (virtual time) each DC finished loading the
	// version; the max-min spread is the cross-DC replication lag.
	ReadyAt map[netsim.NodeID]time.Duration
}

// EffectiveTime is the update's critical path: network delivery overlaps
// storage apply, so the version is usable at max(network, slowest DC).
func (r UpdateReport) EffectiveTime() time.Duration {
	worst := r.UpdateTime
	for _, d := range r.StorageByDC {
		if d > worst {
			worst = d
		}
	}
	return worst
}

// dcsForStream returns the target DCs of a region for a stream.
func (d *DirectLoad) dcsForStream(region bifrost.Region, stream bifrost.StreamType) []netsim.NodeID {
	if stream == bifrost.StreamInverted {
		return region.DCs
	}
	var out []netsim.NodeID
	for _, id := range region.DCs {
		if d.DCs[id].StoresSummary {
			out = append(out, id)
		}
	}
	return out
}

// PublishVersion runs the full update pipeline for one version:
// deduplicate, slice, ship to every data center, apply on arrival, and
// wait (in virtual time) until every DC has loaded the version. The
// retention policy then drops versions beyond the configured limit.
func (d *DirectLoad) PublishVersion(version uint64, entries []Entry) (UpdateReport, error) {
	start := d.Top.Net.Now()
	rep := UpdateReport{
		Version:     version,
		Keys:        len(entries),
		StorageByDC: make(map[netsim.NodeID]time.Duration),
		ReadyAt:     make(map[netsim.NodeID]time.Duration),
	}

	// Bifrost: dedup and pack per stream.
	builders := map[bifrost.StreamType]*bifrost.SliceBuilder{
		bifrost.StreamSummary:  bifrost.NewSliceBuilder(version, bifrost.StreamSummary, d.cfg.SliceLimit),
		bifrost.StreamInverted: bifrost.NewSliceBuilder(version, bifrost.StreamInverted, d.cfg.SliceLimit),
	}
	for _, e := range entries {
		rep.PayloadBytes += int64(len(e.Key) + len(e.Value))
		rec := bifrost.Record{Key: e.Key, Version: version, Value: e.Value}
		if d.cfg.DedupEnabled && d.Deduper.Process(e.Key, e.Value) {
			rec.Dedup = true
			rec.Value = nil
		} else if !d.cfg.DedupEnabled {
			// Keep the signature cache warm so enabling dedup later
			// compares against the true previous version.
			d.Deduper.Process(e.Key, e.Value)
		}
		rep.WireBytes += int64(len(e.Key) + len(rec.Value))
		builders[e.Stream].Add(rec)
	}
	slices := map[bifrost.StreamType][]*bifrost.Slice{}
	for st, b := range builders {
		slices[st] = b.Finish()
	}
	// Register expectations, then ship.
	for _, dc := range d.DCs {
		dc.state[version] = VersionPending
		dc.expected[version] = 0
		dc.arrived[version] = 0
	}
	streamOrder := []bifrost.StreamType{bifrost.StreamSummary, bifrost.StreamInverted}
	for _, region := range d.Top.Regions {
		for _, st := range streamOrder {
			for _, id := range d.dcsForStream(region, st) {
				d.DCs[id].expected[version] += len(slices[st])
			}
		}
	}
	// A DC that stores none of this version's streams is trivially ready
	// (e.g. a summary-only publish reaches three of the six DCs).
	for _, dc := range d.DCs {
		if dc.expected[version] == 0 {
			dc.state[version] = VersionReady
			rep.ReadyAt[dc.ID] = start
		}
	}
	for _, region := range d.Top.Regions {
		for _, st := range streamOrder {
			targets := d.dcsForStream(region, st)
			if len(targets) == 0 {
				continue
			}
			for _, slice := range slices[st] {
				slice := slice
				err := d.Shipper.ShipToRegionDCs(slice, region, targets, func(del bifrost.Delivery) {
					d.applySlice(del, version, &rep)
				})
				if err != nil {
					return rep, fmt.Errorf("cluster: shipping v%d: %w", version, err)
				}
			}
		}
	}
	// Drain the network (virtual time).
	d.Top.Net.Run(0)
	for _, dc := range d.DCs {
		if dc.applyErr != nil {
			return rep, dc.applyErr
		}
		if dc.state[version] != VersionReady {
			return rep, fmt.Errorf("cluster: %s stuck at %d/%d slices of v%d",
				dc.ID, dc.arrived[version], dc.expected[version], version)
		}
	}
	d.versions = append(d.versions, version)
	rep.UpdateTime = d.Top.Net.Now() - start
	rep.Dedup = d.Deduper.AdvanceVersion()
	rep.MissRatio = d.Shipper.MissRatio()

	// Retention: drop the oldest versions beyond the cap, cluster-wide.
	for len(d.versions) > d.cfg.RetainVersions {
		old := d.versions[0]
		d.versions = d.versions[1:]
		for _, dc := range d.DCs {
			if _, err := dc.Store.DropVersion(old); err != nil {
				return rep, err
			}
			delete(dc.state, old)
			delete(dc.expected, old)
			delete(dc.arrived, old)
			if dc.active == old {
				dc.active = 0
			}
		}
	}
	return rep, nil
}

// applySlice loads one delivered slice into the receiving DC's store.
func (d *DirectLoad) applySlice(del bifrost.Delivery, version uint64, rep *UpdateReport) {
	dc, ok := d.DCs[del.DC]
	if !ok {
		return
	}
	for _, rec := range del.Slice.Records {
		cost, err := dc.Store.Put(rec.Key, rec.Version, rec.Value, rec.Dedup)
		rep.StorageByDC[dc.ID] += cost
		if err != nil && dc.applyErr == nil {
			dc.applyErr = fmt.Errorf("cluster: applying at %s: %w", dc.ID, err)
		}
	}
	dc.arrived[version]++
	if dc.arrived[version] >= dc.expected[version] {
		dc.state[version] = VersionReady
		rep.ReadyAt[dc.ID] = del.Arrived
	}
}

// Versions returns the retained version numbers, oldest first.
func (d *DirectLoad) Versions() []uint64 {
	return append([]uint64(nil), d.versions...)
}

// --- gray release, activation, rollback -----------------------------------

// GrayRelease activates the version at exactly one data center (paper §3:
// "a gray release that allows version advance at only one out of the six
// data centers"). The other DCs keep serving their current version.
func (d *DirectLoad) GrayRelease(version uint64, dcID netsim.NodeID) error {
	dc, ok := d.DCs[dcID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDC, dcID)
	}
	if dc.state[version] != VersionReady {
		return fmt.Errorf("%w: v%d at %s", ErrVersionMissing, version, dcID)
	}
	dc.state[version] = VersionActive
	if dc.active != 0 && dc.active != version {
		dc.state[dc.active] = VersionReady
	}
	dc.active = version
	return nil
}

// ActivateEverywhere promotes the version on every data center (the gray
// release validated fine).
func (d *DirectLoad) ActivateEverywhere(version uint64) error {
	for _, dc := range d.DCs {
		st := dc.state[version]
		if st != VersionReady && st != VersionActive {
			return fmt.Errorf("%w: v%d at %s", ErrVersionMissing, version, dc.ID)
		}
	}
	for _, dc := range d.DCs {
		if dc.active != 0 && dc.active != version {
			dc.state[dc.active] = VersionReady
		}
		dc.state[version] = VersionActive
		dc.active = version
	}
	return nil
}

// Rollback reverts a gray release: the gray DC returns to the previous
// version ("Rolling back to the last version is the last resort").
func (d *DirectLoad) Rollback(version uint64, to uint64) error {
	rolled := false
	for _, dc := range d.DCs {
		if dc.active == version {
			if dc.state[to] != VersionReady && dc.state[to] != VersionActive {
				return fmt.Errorf("%w: rollback target v%d at %s", ErrVersionMissing, to, dc.ID)
			}
			dc.state[version] = VersionReady
			dc.state[to] = VersionActive
			dc.active = to
			rolled = true
		}
	}
	if !rolled {
		return fmt.Errorf("%w: v%d", ErrNotGray, version)
	}
	return nil
}

// Get serves a read at one data center against its active version,
// falling back to older versions via the engine's traceback. Reads
// against a DC with no active version fail.
func (d *DirectLoad) Get(dcID netsim.NodeID, key []byte) ([]byte, error) {
	dc, ok := d.DCs[dcID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDC, dcID)
	}
	if dc.active == 0 {
		return nil, fmt.Errorf("%w: no active version at %s", ErrVersionMissing, dcID)
	}
	val, err := dc.Store.Get(key, dc.active)
	return val, err
}

// AuditConsistency samples keys and compares the answers of every pair
// of data centers, returning the fraction of (key, DC-pair) comparisons
// that disagree — the paper's cross-region search inconsistency metric
// (measured under 0.1% during gray release).
func (d *DirectLoad) AuditConsistency(keys [][]byte) float64 {
	var ids []netsim.NodeID
	for id := range d.DCs {
		ids = append(ids, id)
	}
	// Deterministic order.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	comparisons, disagreements := 0, 0
	for _, key := range keys {
		var answers []string
		for _, id := range ids {
			val, err := d.Get(id, key)
			if err != nil {
				continue
			}
			answers = append(answers, string(val))
		}
		for i := 1; i < len(answers); i++ {
			comparisons++
			if answers[i] != answers[0] {
				disagreements++
			}
		}
	}
	if comparisons == 0 {
		return 0
	}
	return float64(disagreements) / float64(comparisons)
}
