// Package mint implements the regional distributed key-value store of
// DirectLoad (paper §2.3): arriving key-value pairs are dispatched to
// storage-node *groups* by key hash (never directly to nodes, so groups
// can grow or shrink without redistributing stored data), each pair is
// replicated on three nodes of its group, and reads fan out to the
// group's live replicas in parallel so that a single recovering node
// never adds latency.
//
// Every storage node runs a QinDB engine (or, for baseline experiments,
// the LSM engine) over its own simulated SSD.
// Parallelism is modeled, not executed: a fan-out read costs the minimum
// simulated latency among the replicas that answered, which is exactly
// the property the paper relies on ("The parallel requests to the
// replicas will hide the node recovery from front-end users").
package mint

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"directload/internal/core"
)

// Cluster errors.
var (
	ErrNoGroup        = errors.New("mint: cluster has no groups")
	ErrNodeDown       = errors.New("mint: node down")
	ErrNodeUnknown    = errors.New("mint: unknown node")
	ErrQuorum         = errors.New("mint: not enough live replicas")
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
	// Engine configures each node's QinDB instance when Factory is nil.
	Engine core.Options
	// Factory overrides the per-node storage stack; use LSMFactory for
	// the baseline system of Fig. 10a. Nil selects QinDBFactory(Engine).
	Factory EngineFactory
	// WriteQuorum is the minimum replicas that must accept a write
	// (default: majority of Replicas).
	WriteQuorum int
}

// DefaultConfig returns a small but structurally faithful cluster: 4
// groups of 4 nodes, 3 replicas.
func DefaultConfig() Config {
	return Config{
		Groups:        4,
		NodesPerGroup: 4,
		Replicas:      3,
		NodeCapacity:  1 << 30,
		Engine:        core.DefaultOptions(),
	}
}

// Node is one storage server: a storage engine over a private SSD.
type Node struct {
	ID    string
	db    Engine
	stack *EngineStack
	down  bool
	group int
}

// DB exposes the node's engine (experiments inspect per-node state).
func (n *Node) DB() Engine { return n.db }

// Down reports whether the node is failed.
func (n *Node) Down() bool { return n.down }

// Group is a replication group.
type Group struct {
	ID    int
	Nodes []*Node
}

// Cluster is a Mint deployment in one data center.
type Cluster struct {
	cfg    Config
	place  Placement
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
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = cfg.Replicas/2 + 1
	}
	if cfg.NodeCapacity <= 0 {
		cfg.NodeCapacity = 1 << 30
	}
	if cfg.Factory == nil {
		cfg.Factory = QinDBFactory(cfg.Engine)
	}
	c := &Cluster{cfg: cfg, place: Placement{Replicas: cfg.Replicas}, byID: make(map[string]*Node)}
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
	n := &Node{ID: id, db: stack.Engine, stack: stack, group: groupID}
	c.groups[groupID].Nodes = append(c.groups[groupID].Nodes, n)
	c.byID[id] = n
	return n, nil
}

// RemoveNode detaches a node from its group (its data is simply gone; the
// other replicas keep serving, as in the paper's failure story).
func (c *Cluster) RemoveNode(id string) error {
	n, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, id)
	}
	g := c.groups[n.group]
	for i, m := range g.Nodes {
		if m == n {
			g.Nodes = append(g.Nodes[:i], g.Nodes[i+1:]...)
			break
		}
	}
	delete(c.byID, id)
	n.db.Close()
	return nil
}

// GroupFor returns the group a key belongs to (paper: "the H(k) is
// mapped to a group"); the math lives in Placement, shared with the
// networked fleet router.
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
// when at least WriteQuorum replicas accept. The returned cost models
// parallel replication: the slowest accepting replica.
func (c *Cluster) Put(key []byte, version uint64, value []byte, dedup bool) (time.Duration, error) {
	if len(c.groups) == 0 {
		return 0, ErrNoGroup
	}
	g := c.GroupFor(key)
	var slowest time.Duration
	acked := 0
	var lastErr error
	for _, n := range c.replicasFor(key, g) {
		if n.down {
			lastErr = fmt.Errorf("%w: %s", ErrNodeDown, n.ID)
			continue
		}
		cost, err := n.db.Put(key, version, value, dedup)
		if err != nil {
			lastErr = err
			continue
		}
		acked++
		if cost > slowest {
			slowest = cost
		}
	}
	if acked < c.cfg.WriteQuorum {
		return slowest, fmt.Errorf("%w: %d/%d acked: %v", ErrQuorum, acked, c.cfg.WriteQuorum, lastErr)
	}
	return slowest, nil
}

// Get reads (key, version) from the replica set in parallel and returns
// the first successful answer. The cost models the fastest live replica,
// which is how replication hides a recovering node's latency.
func (c *Cluster) Get(key []byte, version uint64) ([]byte, time.Duration, error) {
	if len(c.groups) == 0 {
		return nil, 0, ErrNoGroup
	}
	g := c.GroupFor(key)
	var best []byte
	bestCost := time.Duration(-1)
	var lastErr error = ErrAllReplicasErr
	// Fan out to the whole group: replicas move when nodes join, and
	// group-wide fan-out finds data written under any historical replica
	// set (the paper's no-redistribution property).
	for _, n := range g.Nodes {
		if n.down {
			continue
		}
		val, cost, err := n.db.Get(key, version)
		if err != nil {
			if lastErr == ErrAllReplicasErr {
				lastErr = err
			}
			continue
		}
		if bestCost < 0 || cost < bestCost {
			best, bestCost = val, cost
		}
	}
	if bestCost < 0 {
		return nil, 0, lastErr
	}
	return best, bestCost, nil
}

// Del deletes (key, version) on every replica holding it.
func (c *Cluster) Del(key []byte, version uint64) (time.Duration, error) {
	g := c.GroupFor(key)
	var slowest time.Duration
	acked := 0
	var lastErr error
	for _, n := range g.Nodes {
		if n.down {
			continue
		}
		cost, err := n.db.Del(key, version)
		if err != nil {
			lastErr = err
			continue
		}
		acked++
		if cost > slowest {
			slowest = cost
		}
	}
	if acked == 0 {
		if lastErr == nil {
			lastErr = core.ErrNotFound
		}
		return slowest, lastErr
	}
	return slowest, nil
}

// DropVersion retires a whole data version on every node (the paper's
// deletion thread, cluster-wide).
func (c *Cluster) DropVersion(version uint64) (int, time.Duration, error) {
	var total time.Duration
	dropped := 0
	for _, g := range c.groups {
		for _, n := range g.Nodes {
			if n.down {
				continue
			}
			k, cost, err := n.db.DropVersion(version)
			total += cost
			if err != nil {
				return dropped, total, err
			}
			dropped += k
		}
	}
	return dropped, total, nil
}

// FailNode marks a node down (crash injection).
func (c *Cluster) FailNode(id string) error {
	n, ok := c.byID[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, id)
	}
	n.down = true
	return nil
}

// RecoverNode brings a node back: its engine is reopened over the same
// flash, rebuilding the memtable and GC table by scanning the AOFs —
// QinDB's recovery path — and the estimated recovery time is returned.
func (c *Cluster) RecoverNode(id string) (time.Duration, error) {
	n, ok := c.byID[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNodeUnknown, id)
	}
	if !n.down {
		return 0, nil
	}
	db, err := n.stack.Reopen()
	if err != nil {
		return 0, err
	}
	// Recovery cost model: the full flash scan reads every stored byte.
	used := n.stack.UsedBytes()
	cfg := n.stack.Device.Config()
	pages := used / int64(cfg.PageSize)
	scanTime := time.Duration(pages) * cfg.Latency.PageRead / time.Duration(cfg.Latency.Channels)
	n.db = db
	n.down = false
	return scanTime, nil
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

// Node returns a node by id.
func (c *Cluster) Node(id string) (*Node, bool) {
	n, ok := c.byID[id]
	return n, ok
}

// Groups returns the group count.
func (c *Cluster) Groups() int { return len(c.groups) }

// Stats aggregates engine stats across all nodes.
type Stats struct {
	Nodes          int
	DownNodes      int
	Keys           int
	UserWriteBytes int64
	DiskBytes      int64
	GCRuns         int64
}

// Stats returns cluster-wide aggregates.
func (c *Cluster) Stats() Stats {
	var s Stats
	for _, g := range c.groups {
		for _, n := range g.Nodes {
			s.Nodes++
			if n.down {
				s.DownNodes++
				continue
			}
			st := n.stack.Stats()
			s.Keys += st.Keys
			s.UserWriteBytes += st.UserWriteBytes
			s.DiskBytes += st.DiskBytes
			s.GCRuns += st.GCRuns
		}
	}
	return s
}

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
