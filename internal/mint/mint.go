// Package mint implements the regional distributed key-value store of
// DirectLoad (paper §2.3): arriving key-value pairs are dispatched to
// storage-node *groups* by key hash (never directly to nodes, so groups
// can grow or shrink without redistributing stored data), each pair is
// replicated on three nodes of its group, and reads fan out to the
// group's replicas in parallel.
//
// Every storage node runs a QinDB engine (or, for baseline experiments,
// the LSM engine) over its own simulated SSD, and that device's clock is
// the node's virtual time. The simulation runs on one goroutine (no
// package under it starts one), so the clock's advance across a call is
// that call's cost, and each replica is charged its own device's advance.
// Parallelism is modeled, not executed: a write costs its slowest acked
// replica. Reads and version drops return no cost, since no figure
// prints one; each still advances its nodes' device clocks. The
// cluster exists to print the paper's whole-system figures; node crashes
// and the parallel reads that hide a recovering node run over the wire
// in internal/fleet.
package mint

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"directload/internal/core"
	"directload/internal/placement"
	"directload/internal/ssd"
)

// Cluster errors.
var (
	ErrNoGroup        = errors.New("mint: cluster has no groups")
	ErrQuorum         = errors.New("mint: write quorum not reached")
	ErrAllReplicasErr = errors.New("mint: all replicas failed")
	ErrDupNode        = errors.New("mint: duplicate node id")
)

// Config sizes a cluster.
type Config struct {
	// Groups is the number of storage groups H(k) maps onto.
	Groups int
	// NodesPerGroup is the initial node count per group (>= Replicas).
	NodesPerGroup int
	// Replicas per key (paper: 3).
	Replicas int
	// NodeCapacity is each node's simulated SSD size in bytes (paper:
	// one 2 TB SSD per node; scale down for experiments).
	NodeCapacity int64
	// Factory builds each node's storage stack: QinDBFactory for the
	// paper's system, LSMFactory for the baseline of Fig. 10a.
	Factory EngineFactory
}

// DefaultConfig returns a small but structurally faithful cluster: 4
// groups of 4 nodes, 3 replicas.
func DefaultConfig() Config {
	return Config{
		Groups:        4,
		NodesPerGroup: 4,
		Replicas:      3,
		NodeCapacity:  1 << 30,
		Factory:       QinDBFactory(core.DefaultOptions()),
	}
}

// Node is one storage server: a storage engine over a private SSD.
type Node struct {
	ID  string
	db  Engine
	dev *ssd.Device
}

// Group is a replication group.
type Group struct {
	ID    int
	Nodes []*Node
}

// Cluster is a Mint deployment in one data center.
type Cluster struct {
	cfg    Config
	place  placement.Placement
	groups []*Group
	byID   map[string]*Node
	nextID int
}

// New builds a cluster with cfg.Groups groups of cfg.NodesPerGroup nodes.
func New(cfg Config) (*Cluster, error) {
	if cfg.Groups <= 0 {
		return nil, fmt.Errorf("mint: non-positive group count %d", cfg.Groups)
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.NodesPerGroup < cfg.Replicas {
		return nil, fmt.Errorf("mint: %d nodes per group < %d replicas", cfg.NodesPerGroup, cfg.Replicas)
	}
	if cfg.NodeCapacity <= 0 {
		cfg.NodeCapacity = 1 << 30
	}
	if cfg.Factory == nil {
		return nil, errors.New("mint: nil engine factory")
	}
	c := &Cluster{cfg: cfg, place: placement.Placement{Replicas: cfg.Replicas}, byID: make(map[string]*Node)}
	for g := 0; g < cfg.Groups; g++ {
		group := &Group{ID: g}
		c.groups = append(c.groups, group)
		for i := 0; i < cfg.NodesPerGroup; i++ {
			if _, err := c.AddNode(g); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// AddNode grows a group by one node — the scalability operation the
// group indirection exists for. No stored data moves.
func (c *Cluster) AddNode(groupID int) (*Node, error) {
	if groupID < 0 || groupID >= len(c.groups) {
		return nil, fmt.Errorf("mint: bad group %d", groupID)
	}
	stack, err := c.cfg.Factory(c.cfg.NodeCapacity, int64(c.nextID+1))
	if err != nil {
		return nil, err
	}
	id := fmt.Sprintf("g%d-n%d", groupID, c.nextID)
	c.nextID++
	if _, dup := c.byID[id]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDupNode, id)
	}
	n := &Node{ID: id, db: stack.Engine, dev: stack.Device}
	c.groups[groupID].Nodes = append(c.groups[groupID].Nodes, n)
	c.byID[id] = n
	return n, nil
}

// GroupFor returns the group a key belongs to (paper: "the H(k) is
// mapped to a group"); the math lives in placement.Placement, shared
// with the networked fleet router.
func (c *Cluster) GroupFor(key []byte) *Group {
	return c.groups[c.place.Group(key, len(c.groups))]
}

// replicasFor selects cfg.Replicas nodes of the key's group by rendezvous
// (highest-random-weight) hashing: stable under node additions, and every
// node knows the answer without coordination.
func (c *Cluster) replicasFor(key []byte, g *Group) []*Node {
	ids := make([]string, len(g.Nodes))
	for i, n := range g.Nodes {
		ids[i] = n.ID
	}
	out := make([]*Node, 0, c.cfg.Replicas)
	for _, id := range c.place.ReplicasFor(key, ids) {
		out = append(out, c.byID[id])
	}
	return out
}

// ReplicaIDs returns the IDs of the key's replica set in placement
// order (primary first) — the answer fleet routers must agree with.
func (c *Cluster) ReplicaIDs(key []byte) []string {
	g := c.GroupFor(key)
	ids := make([]string, len(g.Nodes))
	for i, n := range g.Nodes {
		ids[i] = n.ID
	}
	return c.place.ReplicasFor(key, ids)
}

// Put writes (key, version, value) to the key's replica set. It succeeds
// when a majority of the replicas accept. The returned cost models
// parallel replication: the slowest accepting replica's device time.
func (c *Cluster) Put(key []byte, version uint64, value []byte, dedup bool) (time.Duration, error) {
	if len(c.groups) == 0 {
		return 0, ErrNoGroup
	}
	g := c.GroupFor(key)
	var slowest time.Duration
	acked := 0
	var lastErr error
	for _, n := range c.replicasFor(key, g) {
		start := n.dev.Now()
		if err := n.db.Put(key, version, value, dedup); err != nil {
			lastErr = err
			continue
		}
		acked++
		slowest = max(slowest, n.dev.Now()-start)
	}
	if quorum := c.cfg.Replicas/2 + 1; acked < quorum {
		return slowest, fmt.Errorf("%w: %d/%d acked: %v", ErrQuorum, acked, quorum, lastErr)
	}
	return slowest, nil
}

// Get reads (key, version) from every node of the key's group, as the
// parallel fan-out does, and returns the first successful answer: every
// replica holds the same bytes for an exact (key, version). Fanning out
// to the whole group rather than the replica set finds data written
// under any historical replica set, since replicas move when nodes join
// (the paper's no-redistribution property).
func (c *Cluster) Get(key []byte, version uint64) ([]byte, error) {
	if len(c.groups) == 0 {
		return nil, ErrNoGroup
	}
	var val []byte
	found := false
	var firstErr error = ErrAllReplicasErr
	for _, n := range c.GroupFor(key).Nodes {
		v, err := n.db.Get(key, version)
		switch {
		case err != nil:
			if firstErr == ErrAllReplicasErr {
				firstErr = err
			}
		case !found:
			val, found = v, true
		}
	}
	if !found {
		return nil, firstErr
	}
	return val, nil
}

// DropVersion retires a whole data version on every node (the paper's
// deletion thread, cluster-wide) and returns the entries dropped.
func (c *Cluster) DropVersion(version uint64) (int, error) {
	dropped := 0
	for _, g := range c.groups {
		for _, n := range g.Nodes {
			k, err := n.db.DropVersion(version)
			if err != nil {
				return dropped, err
			}
			dropped += k
		}
	}
	return dropped, nil
}

// Nodes lists node ids (sorted) for iteration in tests and tools.
func (c *Cluster) Nodes() []string {
	ids := make([]string, 0, len(c.byID))
	for id := range c.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Groups returns the group count.
func (c *Cluster) Groups() int { return len(c.groups) }

// Close shuts every node down and reports every failure.
func (c *Cluster) Close() error {
	var errs []error
	for _, g := range c.groups {
		for _, n := range g.Nodes {
			if err := n.db.Close(); err != nil && !errors.Is(err, core.ErrClosed) {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}
