// Package fleet is the networked Mint: a client-side shard router that
// runs the paper's regional store protocol (§2.3 — hash→group
// placement, R-way replication, parallel reads) over real qindbd nodes
// using the native wire stack (one client per node, OpBatch frames for
// writes) instead of the in-process simulation in internal/mint.
//
// Placement is the exact math the simulation uses (placement.Placement,
// shared with internal/mint), so the two paths cannot drift. Writes are
// quorum writes: each entry must be acknowledged by W of its R
// replicas, shipped per node as batched frames with a short retry.
// Reads are the paper's parallel reads in tail-latency form: the
// primary replica is asked first, a miss or transport error fans out
// immediately, a hedge fans out when the primary is slow, and the first
// successful answer wins — with read-repair of every replica asked that
// answers it lacks the key, also after the read has returned. The router
// keeps no state beyond its connections: a node that was down is simply
// asked again.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"directload/internal/core"
	"directload/internal/placement"
	"directload/internal/server"
)

// Router errors.
var (
	ErrNoNodes = errors.New("fleet: no nodes configured")
	ErrQuorum  = errors.New("fleet: write quorum not reached")
	ErrClosed  = errors.New("fleet: closed")
)

const (
	// writeRetries is how many times a replica's batch is re-sent after
	// a transport failure, backing off from retryBackoff and doubling.
	writeRetries = 2
	retryBackoff = 5 * time.Millisecond
	// hedgeAfter is how long a read waits on one replica before asking
	// the next one as well.
	hedgeAfter = 2 * time.Millisecond
	// backgroundTimeout bounds a replica read that outlives its Get, and a repair.
	backgroundTimeout = 2 * time.Second
)

// Config sizes a fleet router.
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
	// Timeout is every node client's default per-request deadline, which
	// also bounds its dial (server.WithTimeout; 0 = none).
	Timeout time.Duration
}

// Entry is one record of a version publish.
type Entry struct {
	Key   []byte
	Value []byte
	// Dedup marks a value-stripped record whose payload lives in an
	// older version (resolved node-side via traceback).
	Dedup bool
}

// Fleet routes reads and writes onto replication groups of real TCP
// storage nodes. All methods are safe for concurrent use.
type Fleet struct {
	cfg    Config
	place  placement.Placement
	groups [][]*node
	nodes  []*node
	byID   map[string]*node

	wg     sync.WaitGroup // replica reads and repairs in flight
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
	f := &Fleet{
		cfg:   cfg,
		place: placement.Placement{Replicas: cfg.Replicas},
		byID:  make(map[string]*node),
	}
	for g, addrs := range cfg.Groups {
		if len(addrs) < cfg.Replicas {
			return nil, fmt.Errorf("fleet: group %d has %d nodes < %d replicas", g, len(addrs), cfg.Replicas)
		}
		var members []*node
		for _, addr := range addrs {
			n := &node{addr: addr, timeout: cfg.Timeout}
			if _, dup := f.byID[n.addr]; dup {
				return nil, fmt.Errorf("fleet: duplicate node id %q", n.addr)
			}
			f.byID[n.addr] = n
			members = append(members, n)
			f.nodes = append(f.nodes, n)
		}
		f.groups = append(f.groups, members)
	}
	return f, nil
}

// Close waits for background reads and repairs, then closes every client.
func (f *Fleet) Close() error {
	var closeErr error
	f.once.Do(func() {
		f.closed.Store(true)
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

// transportErr reports whether err indicates node trouble (dial/IO/
// deadline) rather than a logical reply (engine status, batch sub-op
// failure) or the caller's own cancellation. Only transport errors are
// worth a retry.
func transportErr(err error) bool {
	var se *server.StatusError
	var be *server.BatchError
	return !errors.As(err, &se) && !errors.As(err, &be) && !errors.Is(err, context.Canceled)
}

// --- writes -----------------------------------------------------------------

// PublishVersion writes every entry to its R replicas and succeeds when
// each entry was acknowledged by at least WriteQuorum of them. Entries
// are grouped per node and shipped as OpBatch frames (one batcher per
// replica, all replicas in parallel). A replica that stays unreachable
// after the retries misses the version; the publish still succeeds while
// every entry has its quorum elsewhere.
func (f *Fleet) PublishVersion(ctx context.Context, version uint64, entries []Entry) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if len(entries) == 0 {
		return nil
	}

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
			if werr := writeNode(ctx, n, version, entries, idxs); werr != nil {
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
		return fmt.Errorf("%w: %d/%d entries below W=%d (first key %q): %w",
			ErrQuorum, short, len(entries), f.cfg.WriteQuorum, firstKey, errors.Join(nodeErrs...))
	}
	return nil
}

// writeNode ships one replica's share of a publish as a batched write,
// retrying transport failures with backoff. A sub-op the node refused
// is returned at once: re-sending the same bytes cannot fix it.
func writeNode(ctx context.Context, n *node, version uint64, entries []Entry, idxs []int) error {
	for attempt := 0; ; attempt++ {
		err := tryWrite(ctx, n, version, entries, idxs)
		if err == nil || !transportErr(err) || attempt == writeRetries {
			return err
		}
		select {
		case <-time.After(retryBackoff << attempt):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// tryWrite is one batched write attempt to one node.
func tryWrite(ctx context.Context, n *node, version uint64, entries []Entry, idxs []int) error {
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

// DropVersion retires a version on every node. Its error joins one
// error per node that did not drop it, unreachable nodes included, so a
// caller knows which nodes still hold the version and retries the drop
// there once they are back.
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
			cl, err := n.client()
			if err == nil {
				err = cl.DropVersionContext(ctx, version)
			}
			if err != nil {
				errs[i] = fmt.Errorf("fleet: dropping v%d on %s: %w", version, n.addr, err)
			}
		}(i, n)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// --- reads ------------------------------------------------------------------

// Get reads (key, version) with hedged parallel requests: the primary
// replica first; a definitive miss or transport error fans out to the
// next replica immediately, and every hedgeAfter without an answer fans
// out anyway. The first successful answer wins. The replicas still
// answering then are not cancelled: they finish in the background, and
// every replica asked that answers "not found" is read-repaired with the
// winning value. When every replica fails, the last error is returned.
func (f *Fleet) Get(ctx context.Context, key []byte, version uint64) ([]byte, error) {
	if f.closed.Load() {
		return nil, ErrClosed
	}
	replicas := f.replicaNodes(key)

	resCh := make(chan readResult, len(replicas))
	rctx := context.WithoutCancel(ctx) // a replica read outlives Get, bounded by its own timeout
	launched := 0
	launch := func() {
		n := replicas[launched]
		launched++
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			ctx, cancel := context.WithTimeout(rctx, backgroundTimeout)
			defer cancel()
			var rv []byte
			cl, rerr := n.client()
			if rerr == nil {
				rv, rerr = cl.GetContext(ctx, key, version)
			}
			resCh <- readResult{n: n, val: rv, err: rerr}
		}()
	}
	launch()
	hedge := time.NewTimer(hedgeAfter)
	defer hedge.Stop()

	var stale []*node // replicas that answered "not found": repair targets
	var lastErr error
	for pending := 1; pending > 0; {
		select {
		case r := <-resCh:
			pending--
			if r.err == nil {
				f.repair(key, version, r.val, stale, resCh, pending)
				return r.val, nil
			}
			if errors.Is(r.err, core.ErrNotFound) {
				stale = append(stale, r.n)
			}
			lastErr = r.err
			// A miss or failure is definitive for that replica: fan out to
			// the next one now rather than waiting for the hedge.
			if launched < len(replicas) {
				launch()
				pending++
			}
		case <-hedge.C:
			if launched < len(replicas) {
				launch()
				pending++
				hedge.Reset(hedgeAfter)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// readResult is one replica's answer to a Get.
type readResult struct {
	n   *node
	val []byte
	err error
}

// repair writes the winning value back, in the background and tracked
// for Close, to the replicas that answered "not found": those in stale,
// and those of the pending reads still due on resCh.
func (f *Fleet) repair(key []byte, version uint64, val []byte, stale []*node, resCh <-chan readResult, pending int) {
	if len(stale) == 0 && pending == 0 {
		return // the common case: no goroutine per read
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for ; pending > 0; pending-- {
			if r := <-resCh; errors.Is(r.err, core.ErrNotFound) {
				stale = append(stale, r.n)
			}
		}
		for _, n := range stale {
			// A failed repair is left to the next read that finds the
			// replica missing.
			if cl, err := n.client(); err == nil {
				ctx, cancel := context.WithTimeout(context.Background(), backgroundTimeout)
				_ = cl.PutContext(ctx, key, version, val, false)
				cancel()
			}
		}
	}()
}
