// Package fleet is the networked Mint: a client-side shard router that
// runs the paper's regional store protocol (§2.3 — hash→group
// placement, R-way replication, parallel reads) over real qindbd nodes
// using the native wire stack (pipelining, OpBatch)
// instead of the in-process simulation in internal/mint.
//
// Placement is the exact math the simulation uses (placement.Placement,
// shared with internal/mint), so the two paths cannot drift. Writes are
// quorum writes: each entry must be acknowledged by W of its R
// replicas, shipped per node as batched frames with retry/backoff;
// writes owed to an unreachable replica land in a bounded
// hinted-handoff queue that drains when the health prober sees the node
// again. Reads are the paper's parallel reads in
// tail-latency form: the primary replica is asked first, a hedge fires
// at a p99-derived delay (from the live read-latency histogram), a miss
// or transport error fans out immediately, and the first successful
// answer wins — with read-repair of any replica that was seen missing
// the key. A per-node circuit breaker, fed by request outcomes and a
// background prober, keeps known-dead replicas out of the request path.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/placement"
	"directload/internal/server"
)

// Router errors.
var (
	ErrNoNodes     = errors.New("fleet: no nodes configured")
	ErrQuorum      = errors.New("fleet: write quorum not reached")
	ErrBreakerOpen = errors.New("fleet: circuit breaker open")
	ErrClosed      = errors.New("fleet: closed")
	ErrAllReplicas = errors.New("fleet: all replicas failed")
)

// Config sizes and tunes a fleet router.
type Config struct {
	// Groups lists the replication groups: one slice of node TCP
	// addresses per group. Keys map onto groups by hash, so group
	// membership can grow without moving stored data (paper §2.3).
	// Placement hashes each node's address, which is also its ID.
	Groups [][]string
	// Replicas per key (paper: 3). Defaults to 3, and must not exceed
	// the smallest group.
	Replicas int
	// WriteQuorum is W: the replicas that must ack a write (default
	// majority of Replicas).
	WriteQuorum int
	// HedgeAfter is the hedge delay used until the read-latency
	// histogram has enough samples to derive one (default 2ms).
	HedgeAfter time.Duration
	// WriteRetries is how many times a failed per-replica batch write is
	// retried (with exponential backoff) before hinting (default 2).
	WriteRetries int
	// RetryBackoff is the base backoff between write retries (default 5ms).
	RetryBackoff time.Duration
	// ProbeInterval paces the background health prober (default 500ms;
	// negative disables it — ProbeNow still works).
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive transport failures that trip a
	// node's breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects requests
	// before admitting a half-open trial (default 1s).
	BreakerCooldown time.Duration
	// Metrics, when non-nil, receives the fleet.* metrics.
	// fleet.read.misses over fleet.read.requests is the read-miss ratio
	// the paper reports (0.24 % observed vs 0.6 % allowed).
	Metrics *metrics.Registry
	// DialOpts apply to every node client (pool size, timeout, ...).
	DialOpts []server.DialOption
}

// Entry is one record of a version publish.
type Entry struct {
	Key   []byte
	Value []byte
	// Dedup marks a value-stripped record whose payload lives in an
	// older version (resolved node-side via traceback).
	Dedup bool
}

// NodeStatus is one node's operator-visible state.
type NodeStatus struct {
	ID               string `json:"id"`
	Addr             string `json:"addr"`
	Group            int    `json:"group"`
	Breaker          string `json:"breaker"`
	ConsecutiveFails int    `json:"consecutive_failures"`
	HandoffDepth     int    `json:"handoff_depth"`
	HandoffDropped   int64  `json:"handoff_dropped,omitempty"`
	LastError        string `json:"last_error,omitempty"`
}

// Status is the fleet snapshot `qindbctl fleet status` prints.
type Status struct {
	Groups       int          `json:"groups"`
	Replicas     int          `json:"replicas"`
	WriteQuorum  int          `json:"write_quorum"`
	HedgeDelayUs int64        `json:"hedge_delay_us"`
	Nodes        []NodeStatus `json:"nodes"`
}

// fleetMetrics holds the fleet.* registry handles; all nil-safe.
type fleetMetrics struct {
	publishLat     *metrics.Histogram
	publishes      *metrics.Counter
	quorumFails    *metrics.Counter
	readLat        *metrics.Histogram // drives the hedge delay
	reads          *metrics.Counter
	hedges         *metrics.Counter
	hedgeWins      *metrics.Counter
	repairs        *metrics.Counter
	misses         *metrics.Counter
	handoffQueued  *metrics.Counter
	handoffDropped *metrics.Counter
	handoffDrained *metrics.Counter
	handoffDepth   *metrics.Gauge
	breakerOpens   *metrics.Counter
	breakerCloses  *metrics.Counter
}

func newFleetMetrics(reg *metrics.Registry) fleetMetrics {
	return fleetMetrics{
		publishLat:     reg.Histogram("fleet.publish.latency_us"),
		publishes:      reg.Counter("fleet.publish.versions"),
		quorumFails:    reg.Counter("fleet.publish.quorum_failures"),
		readLat:        reg.Histogram("fleet.read.latency_us"),
		reads:          reg.Counter("fleet.read.requests"),
		hedges:         reg.Counter("fleet.read.hedges"),
		hedgeWins:      reg.Counter("fleet.read.hedge_wins"),
		repairs:        reg.Counter("fleet.read.repairs"),
		misses:         reg.Counter("fleet.read.misses"),
		handoffQueued:  reg.Counter("fleet.handoff.queued"),
		handoffDropped: reg.Counter("fleet.handoff.dropped"),
		handoffDrained: reg.Counter("fleet.handoff.drained"),
		handoffDepth:   reg.Gauge("fleet.handoff.depth"),
		breakerOpens:   reg.Counter("fleet.breaker.opens"),
		breakerCloses:  reg.Counter("fleet.breaker.closes"),
	}
}

// hedgeMinSamples is how many read latencies must exist before the
// hedge delay trusts the histogram over Config.HedgeAfter.
const hedgeMinSamples = 32

// hedgeQuantile is the read-latency quantile that arms the hedge timer
// once live data exists.
const hedgeQuantile = 0.99

// handoffLimit bounds each node's hinted-handoff queue in hints;
// overflow is dropped and counted.
const handoffLimit = 4096

// minHedgeDelay floors the derived hedge delay so a burst of cached
// sub-microsecond reads cannot turn every read into a fan-out.
const minHedgeDelay = 200 * time.Microsecond

// Fleet routes reads and writes onto replication groups of real TCP
// storage nodes. All methods are safe for concurrent use.
type Fleet struct {
	cfg    Config
	place  placement.Placement
	groups [][]*node
	nodes  []*node
	byID   map[string]*node

	met fleetMetrics

	wg     sync.WaitGroup // prober + async repairs
	stop   chan struct{}
	closed atomic.Bool
	once   sync.Once
}

// New validates cfg and builds the router. Nodes are dialed lazily, so
// a node that is down at construction time costs nothing until it heals
// — New itself performs no I/O.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Groups) == 0 {
		return nil, ErrNoNodes
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = cfg.Replicas/2 + 1
	}
	if cfg.WriteQuorum > cfg.Replicas {
		return nil, fmt.Errorf("fleet: write quorum %d > %d replicas", cfg.WriteQuorum, cfg.Replicas)
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 2 * time.Millisecond
	}
	if cfg.WriteRetries < 0 {
		cfg.WriteRetries = 0
	} else if cfg.WriteRetries == 0 {
		cfg.WriteRetries = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 5 * time.Millisecond
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	f := &Fleet{
		cfg:   cfg,
		place: placement.Placement{Replicas: cfg.Replicas},
		byID:  make(map[string]*node),
		met:   newFleetMetrics(cfg.Metrics),
		stop:  make(chan struct{}),
	}
	for g, addrs := range cfg.Groups {
		if len(addrs) < cfg.Replicas {
			return nil, fmt.Errorf("fleet: group %d has %d nodes < %d replicas", g, len(addrs), cfg.Replicas)
		}
		var members []*node
		for _, addr := range addrs {
			n := &node{addr: addr, group: g, opts: cfg.DialOpts}
			if _, dup := f.byID[n.addr]; dup {
				return nil, fmt.Errorf("fleet: duplicate node id %q", n.addr)
			}
			f.byID[n.addr] = n
			members = append(members, n)
			f.nodes = append(f.nodes, n)
		}
		f.groups = append(f.groups, members)
	}
	if cfg.ProbeInterval > 0 {
		f.wg.Add(1)
		go f.proberLoop()
	}
	return f, nil
}

// Close stops the prober, waits for in-flight repairs, and tears down
// every node client.
func (f *Fleet) Close() error {
	var closeErr error
	f.once.Do(func() {
		f.closed.Store(true)
		close(f.stop)
		f.wg.Wait()
		var errs []error
		for _, n := range f.nodes {
			if err := n.close(); err != nil {
				errs = append(errs, err)
			}
		}
		closeErr = errors.Join(errs...)
	})
	return closeErr
}

// ReplicasFor returns the key's group index and its replica node IDs in
// placement order (primary first) — byte-identical to what the
// simulated mint.Cluster computes for the same member IDs.
func (f *Fleet) ReplicasFor(key []byte) (int, []string) {
	g := f.place.Group(key, len(f.groups))
	members := f.groups[g]
	ids := make([]string, len(members))
	for i, n := range members {
		ids[i] = n.addr
	}
	return g, f.place.ReplicasFor(key, ids)
}

// replicaNodes resolves the key's replica set to nodes.
func (f *Fleet) replicaNodes(key []byte) []*node {
	_, ids := f.ReplicasFor(key)
	out := make([]*node, len(ids))
	for i, id := range ids {
		out[i] = f.byID[id]
	}
	return out
}

// Status snapshots the fleet for operators.
func (f *Fleet) Status() Status {
	st := Status{
		Groups:       len(f.groups),
		Replicas:     f.cfg.Replicas,
		WriteQuorum:  f.cfg.WriteQuorum,
		HedgeDelayUs: int64(f.hedgeDelay() / time.Microsecond),
	}
	for _, n := range f.nodes {
		st.Nodes = append(st.Nodes, n.status())
	}
	return st
}

// hedgeDelay is how long the primary read gets before a hedge fires:
// the live p99 (hedgeQuantile) of fleet reads once enough samples
// exist, floored so cache-hot reads cannot hedge constantly, and the
// configured HedgeAfter until then.
func (f *Fleet) hedgeDelay() time.Duration {
	if h := f.met.readLat; h.Count() >= hedgeMinSamples {
		if p := h.Quantile(hedgeQuantile); p > 0 {
			d := time.Duration(p * float64(time.Microsecond))
			if d < minHedgeDelay {
				d = minHedgeDelay
			}
			return d
		}
	}
	return f.cfg.HedgeAfter
}

// transportErr reports whether err indicates node trouble (dial/IO/
// deadline) rather than a logical reply (engine status, batch sub-op
// failure) or the caller's own cancellation. Only transport errors feed
// the breaker and justify hinted handoff.
func transportErr(err error) bool {
	var se *server.StatusError
	if errors.As(err, &se) {
		return false
	}
	var be *server.BatchError
	if errors.As(err, &be) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// nodeFailure routes a transport failure into the node's breaker,
// counting fleet.breaker.opens when this failure tripped it.
func (f *Fleet) nodeFailure(n *node, err error) {
	if n.onFailure(err, f.cfg.BreakerThreshold, f.cfg.BreakerCooldown) {
		f.met.breakerOpens.Inc()
	}
}

// nodeSuccess routes a healthy response into the node's breaker,
// counting fleet.breaker.closes when the node was recovering.
func (f *Fleet) nodeSuccess(n *node) {
	if n.onSuccess() {
		f.met.breakerCloses.Inc()
	}
}

// queueHandoff queues a node's owed hints, keeping the handoff metrics
// in step.
func (f *Fleet) queueHandoff(n *node, hs []hint) {
	queued, dropped := n.queueHints(hs)
	f.met.handoffQueued.Add(int64(queued))
	f.met.handoffDropped.Add(int64(dropped))
	f.met.handoffDepth.Add(int64(queued))
}

// --- writes -----------------------------------------------------------------

// PublishVersion writes every entry to its R replicas and succeeds when
// each entry was acknowledged by at least WriteQuorum of them. Entries
// are grouped per node and shipped as OpBatch frames (one batcher per
// replica, all replicas in parallel); a replica that stays unreachable
// after the retries gets its share queued as hinted handoff, to drain
// when the prober sees it healthy again.
func (f *Fleet) PublishVersion(ctx context.Context, version uint64, entries []Entry) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if len(entries) == 0 {
		return nil
	}
	start := time.Now()

	// Place every entry: per-node index lists, iteration order fixed.
	assign := make(map[*node][]int)
	var order []*node
	for i := range entries {
		for _, n := range f.replicaNodes(entries[i].Key) {
			if assign[n] == nil {
				order = append(order, n)
			}
			assign[n] = append(assign[n], i)
		}
	}

	acks := make([]atomic.Int32, len(entries))
	nodeErrs := make([]error, len(order))
	var wg sync.WaitGroup
	for oi, n := range order {
		wg.Add(1)
		go func(oi int, n *node, idxs []int) {
			defer wg.Done()
			if werr := f.writeNode(ctx, n, version, entries, idxs); werr != nil {
				nodeErrs[oi] = fmt.Errorf("fleet: v%d to %s: %w", version, n.addr, werr)
				return
			}
			for _, i := range idxs {
				acks[i].Add(1)
			}
		}(oi, n, assign[n])
	}
	wg.Wait()

	short := 0
	var firstKey []byte
	for i := range entries {
		if int(acks[i].Load()) < f.cfg.WriteQuorum {
			if short == 0 {
				firstKey = entries[i].Key
			}
			short++
		}
	}
	if short > 0 {
		f.met.quorumFails.Inc()
		return fmt.Errorf("%w: %d/%d entries below W=%d (first key %q): %w",
			ErrQuorum, short, len(entries), f.cfg.WriteQuorum, firstKey, errors.Join(nodeErrs...))
	}
	f.met.publishes.Inc()
	f.met.publishLat.Observe(float64(time.Since(start)) / float64(time.Microsecond))
	return nil
}

// writeNode ships one replica's share of a publish: a batched write
// with retry/backoff, falling back to hinted handoff when the node
// stays unreachable. A breaker-open node is hinted immediately — no
// wire traffic — which is what keeps one dead replica from slowing
// every publish to its timeout.
func (f *Fleet) writeNode(ctx context.Context, n *node, version uint64, entries []Entry, idxs []int) (err error) {
	if !n.available(f.cfg.BreakerCooldown) {
		f.hintPuts(n, version, entries, idxs)
		return fmt.Errorf("%w (%s)", ErrBreakerOpen, n.addr)
	}
	for attempt := 0; ; attempt++ {
		err = f.tryWrite(ctx, n, version, entries, idxs)
		if err == nil {
			f.nodeSuccess(n)
			return nil
		}
		if !transportErr(err) {
			// The node answered: a sub-op failed server-side. Retrying or
			// hinting the same bytes cannot fix that; surface it.
			f.nodeSuccess(n)
			return err
		}
		f.nodeFailure(n, err)
		if attempt >= f.cfg.WriteRetries || ctx.Err() != nil {
			break
		}
		select {
		case <-time.After(f.cfg.RetryBackoff << attempt):
		case <-ctx.Done():
			f.hintPuts(n, version, entries, idxs)
			return ctx.Err()
		}
	}
	f.hintPuts(n, version, entries, idxs)
	return err
}

// tryWrite is one batched write attempt to one node.
func (f *Fleet) tryWrite(ctx context.Context, n *node, version uint64, entries []Entry, idxs []int) error {
	cl, err := n.client()
	if err != nil {
		return err
	}
	b := cl.Batcher()
	for _, i := range idxs {
		if err := b.Put(ctx, entries[i].Key, version, entries[i].Value, entries[i].Dedup); err != nil {
			return err
		}
	}
	return b.Flush(ctx)
}

// hintPuts queues a replica's missed share of a publish for handoff.
func (f *Fleet) hintPuts(n *node, version uint64, entries []Entry, idxs []int) {
	hs := make([]hint, 0, len(idxs))
	for _, i := range idxs {
		op := uint8(server.OpPut)
		if entries[i].Dedup {
			op = server.OpPutDedup
		}
		hs = append(hs, hint{op: op, key: entries[i].Key, version: version, value: entries[i].Value})
	}
	f.queueHandoff(n, hs)
}

// DropVersion retires a version on every node. Unreachable nodes get
// the drop queued as a hint so retention converges when they heal.
func (f *Fleet) DropVersion(ctx context.Context, version uint64) error {
	if f.closed.Load() {
		return ErrClosed
	}
	errs := make([]error, len(f.nodes))
	var wg sync.WaitGroup
	for i, n := range f.nodes {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			hintDrop := func() {
				f.queueHandoff(n, []hint{{op: server.OpDropVersion, version: version}})
			}
			if !n.available(f.cfg.BreakerCooldown) {
				hintDrop()
				return
			}
			cl, err := n.client()
			if err == nil {
				err = cl.DropVersionContext(ctx, version)
			}
			if err == nil {
				f.nodeSuccess(n)
				return
			}
			if transportErr(err) {
				f.nodeFailure(n, err)
				hintDrop()
				return
			}
			errs[i] = fmt.Errorf("fleet: dropping v%d on %s: %w", version, n.addr, err)
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// --- reads ------------------------------------------------------------------

// Get reads (key, version) with hedged parallel requests: the primary
// replica first; a definitive miss or transport error fans out to the
// next replica immediately, and a hedge timer (see hedgeDelay) fans out
// anyway when the primary is merely slow. The first successful answer
// wins, and any replica that was seen answering "not found" is
// read-repaired in the background with the winning value.
func (f *Fleet) Get(ctx context.Context, key []byte, version uint64) ([]byte, error) {
	if f.closed.Load() {
		return nil, ErrClosed
	}
	f.met.reads.Inc()
	replicas := f.replicaNodes(key)
	// Breaker-open replicas go to the back of the line: still reachable
	// as a last resort, never first choice.
	ordered := make([]*node, 0, len(replicas))
	var skipped []*node
	for _, n := range replicas {
		if n.available(f.cfg.BreakerCooldown) {
			ordered = append(ordered, n)
		} else {
			skipped = append(skipped, n)
		}
	}
	ordered = append(ordered, skipped...)
	if len(ordered) == 0 {
		return nil, ErrNoNodes
	}

	type result struct {
		n   *node
		i   int
		val []byte
		err error
	}
	resCh := make(chan result, len(ordered))
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	launched := 0
	launch := func() {
		i := launched
		n := ordered[i]
		launched++
		go func() {
			var rv []byte
			cl, rerr := n.client()
			if rerr == nil {
				rv, rerr = cl.GetContext(gctx, key, version)
			}
			resCh <- result{n: n, i: i, val: rv, err: rerr}
		}()
	}
	launch()
	hedge := time.NewTimer(f.hedgeDelay())
	defer hedge.Stop()

	var stale []*node // replicas that answered "not found": repair targets
	var lastErr error
	pending := 1
	for pending > 0 {
		select {
		case r := <-resCh:
			pending--
			if r.err == nil {
				f.nodeSuccess(r.n)
				f.met.readLat.Observe(float64(time.Since(start)) / float64(time.Microsecond))
				if r.i > 0 {
					f.met.hedgeWins.Inc()
				}
				f.repair(key, version, r.val, stale)
				return r.val, nil
			}
			if transportErr(r.err) {
				f.nodeFailure(r.n, r.err)
			} else {
				f.nodeSuccess(r.n)
				if errors.Is(r.err, core.ErrNotFound) {
					stale = append(stale, r.n)
				}
			}
			lastErr = r.err
			// A miss or failure is definitive for that replica: fan out to
			// the next one now rather than waiting for the hedge.
			if launched < len(ordered) {
				launch()
				pending++
			}
		case <-hedge.C:
			if launched < len(ordered) {
				launch()
				pending++
				f.met.hedges.Inc()
			}
			hedge.Reset(f.hedgeDelay())
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f.met.misses.Inc()
	if lastErr == nil {
		lastErr = ErrAllReplicas
	}
	return nil, lastErr
}

// repair writes the winning value back to replicas that answered "not
// found", asynchronously — the read's latency never pays for it. The
// goroutines are tracked, so Close waits for repairs in flight.
func (f *Fleet) repair(key []byte, version uint64, val []byte, stale []*node) {
	for _, n := range stale {
		if f.closed.Load() {
			return
		}
		f.wg.Add(1)
		go func(n *node) {
			defer f.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			cl, err := n.client()
			if err == nil {
				err = cl.PutContext(ctx, key, version, val, false)
			}
			if err == nil {
				f.met.repairs.Inc()
			}
		}(n)
	}
}

// --- health probing and handoff drain ---------------------------------------

// proberLoop pings every node on the configured interval, feeding the
// breakers and draining handoff into nodes that answer.
func (f *Fleet) proberLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			f.probeAll()
		case <-f.stop:
			return
		}
	}
}

// probeAll is one health-probe round over every node.
func (f *Fleet) probeAll() {
	var wg sync.WaitGroup
	for _, n := range f.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			f.probe(n)
		}(n)
	}
	wg.Wait()
}

// ProbeNow runs one synchronous probe round — the deterministic hook
// tests use instead of waiting for the background prober.
func (f *Fleet) ProbeNow() {
	if f.closed.Load() {
		return
	}
	f.probeAll()
}

// probe pings one node (bounded by the probe interval, floored at 1s)
// and, when the node answers and owes hints, drains its handoff queue.
func (f *Fleet) probe(n *node) {
	timeout := f.cfg.ProbeInterval
	if timeout < time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cl, err := n.client()
	if err == nil {
		err = cl.PingContext(ctx)
	}
	if err != nil {
		f.nodeFailure(n, err)
		return
	}
	f.nodeSuccess(n)
	if n.handoffDepth() > 0 {
		f.drainHandoff(ctx, n)
	}
}

// drainHandoff replays a recovered node's owed hints as one batched
// write. On failure the undrained hints are re-queued (subject to the
// same bound), so a flapping node converges instead of losing writes.
func (f *Fleet) drainHandoff(ctx context.Context, n *node) error {
	hs := n.takeHints()
	if len(hs) == 0 {
		return nil
	}
	f.met.handoffDepth.Add(int64(-len(hs)))
	cl, err := n.client()
	if err == nil {
		b := cl.Batcher()
		for _, h := range hs {
			switch h.op {
			case server.OpDropVersion:
				err = b.DropVersion(ctx, h.version)
			default:
				err = b.Put(ctx, h.key, h.version, h.value, h.op == server.OpPutDedup)
			}
			if err != nil {
				break
			}
		}
		if err == nil {
			err = b.Flush(ctx)
		}
	}
	if err != nil && transportErr(err) {
		f.nodeFailure(n, err)
		q, d := n.queueHints(hs)
		f.met.handoffDepth.Add(int64(q))
		f.met.handoffDropped.Add(int64(d))
		return err
	}
	f.met.handoffDrained.Add(int64(len(hs)))
	return err
}
