// Package netsim is a discrete-event simulator of the wide-area fabric
// Bifrost ships index data over: nodes connected by directed links with
// finite bandwidth, transfers that share links fairly (with optional
// reserved fractions per traffic class), link failure and corruption
// injection, and a monitoring hook that samples per-link utilization —
// the paper's "centralized network monitoring platform" (§2.2).
//
// Time is virtual. The simulator advances in events: at any moment every
// active transfer progresses at its allocated rate; the next event is
// whichever transfer completes first (or a scheduled timer). This is the
// classic fluid-flow approximation, which is what update-time and
// miss-ratio arithmetic (Figs. 9-10) depend on.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Simulator errors.
var (
	ErrNoRoute    = errors.New("netsim: no route")
	ErrLinkDown   = errors.New("netsim: link down")
	ErrDupLink    = errors.New("netsim: duplicate link")
	ErrUnknown    = errors.New("netsim: unknown node")
	ErrBadPayload = errors.New("netsim: non-positive payload")
)

// NodeID names a simulated host.
type NodeID string

// Class partitions traffic for bandwidth reservation: the paper reserves
// 40% of each channel for summary indices and 60% for inverted indices.
type Class int

// Traffic classes.
const (
	ClassDefault Class = iota
	ClassSummary
	ClassInverted
	numClasses
)

// Link is a directed channel between two nodes.
type Link struct {
	From, To NodeID
	// Bandwidth in bytes per (virtual) second.
	Bandwidth float64
	// Reservation maps a class to its guaranteed share (0..1). Shares
	// need not sum to 1; unreserved capacity is split fairly among all
	// active transfers, and idle reservations are lent out.
	Reservation map[Class]float64

	down bool
	// accounting
	sentBytes   float64
	sentByCls   [numClasses]float64
	busy        time.Duration
	activeByCls [numClasses]int
}

func (l *Link) key() string { return string(l.From) + "→" + string(l.To) }

// Transfer is one in-flight payload.
type Transfer struct {
	ID      int64
	Path    []*Link // consecutive directed links
	Class   Class
	Size    float64 // bytes total
	Sent    float64 // bytes delivered so far
	Started time.Duration
	Done    bool
	Failed  error
	// OnDone, if set, runs when the transfer completes or fails.
	OnDone func(t *Transfer, now time.Duration)

	rate float64 // current allocation, bytes/sec
}

// Net is the simulated network.
type Net struct {
	nodes     map[NodeID]bool
	links     map[string]*Link
	transfers map[int64]*Transfer
	timers    timerHeap
	now       time.Duration
	nextID    int64
	monitor   *Monitor
}

// New creates an empty network.
func New() *Net {
	return &Net{
		nodes:     make(map[NodeID]bool),
		links:     make(map[string]*Link),
		transfers: make(map[int64]*Transfer),
	}
}

// Now returns the current virtual time.
func (n *Net) Now() time.Duration { return n.now }

// AddNode registers a host.
func (n *Net) AddNode(id NodeID) { n.nodes[id] = true }

// AddLink creates a directed link. Both endpoints must exist.
func (n *Net) AddLink(from, to NodeID, bandwidth float64, reservation map[Class]float64) (*Link, error) {
	if !n.nodes[from] || !n.nodes[to] {
		return nil, fmt.Errorf("%w: %s or %s", ErrUnknown, from, to)
	}
	l := &Link{From: from, To: to, Bandwidth: bandwidth, Reservation: reservation}
	if _, ok := n.links[l.key()]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDupLink, l.key())
	}
	n.links[l.key()] = l
	return l, nil
}

// LinkBetween returns the directed link from→to, if any.
func (n *Net) LinkBetween(from, to NodeID) (*Link, bool) {
	l, ok := n.links[string(from)+"→"+string(to)]
	return l, ok
}

// SetLinkDown marks a link failed (in-flight transfers on it fail at the
// next event boundary) or restores it.
func (n *Net) SetLinkDown(from, to NodeID, down bool) error {
	l, ok := n.LinkBetween(from, to)
	if !ok {
		return ErrNoRoute
	}
	l.down = down
	return nil
}

// Route returns the minimum-hop path from→to over live links, preferring
// (among equal hop counts) the path whose bottleneck link currently has
// the most headroom — the monitoring-driven channel selection of §2.2.
func (n *Net) Route(from, to NodeID) ([]*Link, error) {
	if from == to {
		return nil, nil
	}
	type state struct {
		hops     int
		headroom float64 // bottleneck available bandwidth
		via      *Link
		prev     NodeID
	}
	best := map[NodeID]state{from: {headroom: math.Inf(1)}}
	frontier := []NodeID{from}
	for len(frontier) > 0 {
		var next []NodeID
		for _, u := range frontier {
			su := best[u]
			for _, l := range n.links {
				if l.From != u || l.down {
					continue
				}
				avail := l.availableBandwidth()
				head := math.Min(su.headroom, avail)
				sv, seen := best[l.To]
				cand := state{hops: su.hops + 1, headroom: head, via: l, prev: u}
				if !seen || cand.hops < sv.hops || (cand.hops == sv.hops && cand.headroom > sv.headroom) {
					best[l.To] = cand
					next = append(next, l.To)
				}
			}
		}
		frontier = next
	}
	if _, ok := best[to]; !ok {
		return nil, fmt.Errorf("%w: %s -> %s", ErrNoRoute, from, to)
	}
	var path []*Link
	for at := to; at != from; {
		s := best[at]
		path = append([]*Link{s.via}, path...)
		at = s.prev
	}
	return path, nil
}

// availableBandwidth estimates a link's spare capacity under the current
// allocation (used by routing and the monitor).
func (l *Link) availableBandwidth() float64 {
	if l.down {
		return 0
	}
	active := 0
	for _, c := range l.activeByCls {
		active += c
	}
	if active == 0 {
		return l.Bandwidth
	}
	// With fair sharing a new transfer would get ~1/(active+1).
	return l.Bandwidth / float64(active+1)
}

// Send starts a transfer of size bytes along an explicit path.
func (n *Net) Send(path []*Link, class Class, size float64, onDone func(t *Transfer, now time.Duration)) (*Transfer, error) {
	if size <= 0 {
		return nil, ErrBadPayload
	}
	if len(path) == 0 {
		return nil, ErrNoRoute
	}
	for _, l := range path {
		if l.down {
			return nil, fmt.Errorf("%w: %s", ErrLinkDown, l.key())
		}
	}
	t := &Transfer{
		ID: n.nextID, Path: path, Class: class, Size: size,
		Started: n.now, OnDone: onDone,
	}
	n.nextID++
	n.transfers[t.ID] = t
	for _, l := range path {
		l.activeByCls[class]++
	}
	return t, nil
}

// SendBetween routes and starts a transfer in one step.
func (n *Net) SendBetween(from, to NodeID, class Class, size float64, onDone func(t *Transfer, now time.Duration)) (*Transfer, error) {
	path, err := n.Route(from, to)
	if err != nil {
		return nil, err
	}
	if len(path) == 0 {
		return nil, fmt.Errorf("%w: zero-length path %s->%s", ErrNoRoute, from, to)
	}
	return n.Send(path, class, size, onDone)
}

// After schedules fn to run at now+d.
func (n *Net) After(d time.Duration, fn func(now time.Duration)) {
	n.timers.push(timer{at: n.now + d, fn: fn, seq: n.nextID})
	n.nextID++
}

// allocate computes per-transfer rates: each link divides its bandwidth
// among its classes (reserved shares first, idle shares redistributed),
// then equally among that class's transfers; a transfer's rate is the
// minimum across its path (bottleneck).
func (n *Net) allocate() {
	for _, t := range n.transfers {
		if t.Done {
			continue
		}
		rate := math.Inf(1)
		for _, l := range t.Path {
			r := l.classRate(t.Class)
			if r < rate {
				rate = r
			}
		}
		t.rate = rate
	}
}

// classRate returns the per-transfer rate class cls receives on l.
func (l *Link) classRate(cls Class) float64 {
	if l.down {
		return 0
	}
	// Sum of reserved shares of classes that are currently active.
	var activeReserved float64
	var unreservedActive int
	for c := Class(0); c < numClasses; c++ {
		if l.activeByCls[c] == 0 {
			continue
		}
		if share, ok := l.Reservation[c]; ok {
			activeReserved += share
		} else {
			unreservedActive += l.activeByCls[c]
		}
	}
	share, reserved := l.Reservation[cls]
	if !reserved {
		// Unreserved classes split the leftover fairly per transfer.
		leftover := 1 - activeReserved
		if leftover <= 0 || unreservedActive == 0 {
			return 0
		}
		return l.Bandwidth * leftover / float64(unreservedActive)
	}
	// Reserved: own share, plus idle capacity split among active
	// reserved classes proportionally to their shares.
	idle := 1 - activeReserved
	if unreservedActive > 0 {
		idle = 0 // unreserved traffic soaks up the leftover
	}
	if activeReserved > 0 {
		share += idle * share / activeReserved
	}
	return l.Bandwidth * share / float64(l.activeByCls[cls])
}

// stepLimit advances to the next event (transfer completion, link
// failure surfacing, or timer) and returns false when nothing remains.
// If the next event lies past deadline, time advances exactly to
// deadline instead.
func (n *Net) stepLimit(deadline time.Duration) bool {
	n.allocate()
	// Find the earliest completion among transfers and timers.
	nextAt := time.Duration(math.MaxInt64)
	haveEvent := false
	for _, t := range n.transfers {
		if t.Done {
			continue
		}
		if n.pathDown(t) {
			// Fails immediately.
			nextAt = n.now
			haveEvent = true
			break
		}
		if t.rate <= 0 {
			continue // starved: cannot finish until something changes
		}
		remain := (t.Size - t.Sent) / t.rate
		d := time.Duration(remain * float64(time.Second))
		if d <= 0 {
			// Sub-nanosecond remainder: the clock cannot represent it, so
			// advance one tick; advanceTo's completion epsilon (which is
			// rate-relative) will finish the transfer.
			d = 1
		}
		if at := n.now + d; at < nextAt {
			nextAt = at
			haveEvent = true
		}
	}
	if top, ok := n.timers.peek(); ok && (!haveEvent || top.at < nextAt) {
		nextAt = top.at
		haveEvent = true
	}
	if !haveEvent {
		return false
	}
	if nextAt < n.now {
		nextAt = n.now
	}
	if nextAt > deadline {
		n.advanceTo(deadline)
		return true
	}
	n.advanceTo(nextAt)
	return true
}

// pathDown reports whether any link of the transfer is failed.
func (n *Net) pathDown(t *Transfer) bool {
	for _, l := range t.Path {
		if l.down {
			return true
		}
	}
	return false
}

// advanceTo moves virtual time forward, crediting every transfer with
// rate*dt bytes, then fires whatever completed.
func (n *Net) advanceTo(at time.Duration) {
	dt := at - n.now
	secs := dt.Seconds()
	for _, t := range n.transfers {
		if t.Done || t.rate <= 0 {
			continue
		}
		credited := t.rate * secs
		t.Sent += credited
		for _, l := range t.Path {
			l.sentBytes += credited
			l.sentByCls[t.Class] += credited
			l.busy += dt
		}
	}
	n.now = at
	if n.monitor != nil {
		n.monitor.maybeSample(n)
	}
	// Complete / fail transfers.
	var done []*Transfer
	for _, t := range n.transfers {
		if t.Done {
			continue
		}
		if n.pathDown(t) {
			t.Done = true
			t.Failed = ErrLinkDown
			done = append(done, t)
			continue
		}
		// Completion epsilon: an absolute float tolerance plus whatever
		// the transfer could move in one clock tick — without the latter,
		// a remainder too small to schedule would spin forever.
		eps := 1e-6 + t.rate*1e-9
		if t.Sent >= t.Size-eps {
			t.Sent = t.Size
			t.Done = true
			done = append(done, t)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].ID < done[j].ID })
	for _, t := range done {
		for _, l := range t.Path {
			l.activeByCls[t.Class]--
		}
		delete(n.transfers, t.ID)
		if t.OnDone != nil {
			t.OnDone(t, n.now)
		}
	}
	// Fire timers due now.
	for {
		top, ok := n.timers.peek()
		if !ok || top.at > n.now {
			break
		}
		n.timers.pop()
		top.fn(n.now)
	}
}

// Run steps until the network is idle or until the limit elapses
// (limit <= 0 means no limit). It returns the virtual time.
func (n *Net) Run(limit time.Duration) time.Duration {
	deadline := time.Duration(math.MaxInt64)
	if limit > 0 {
		deadline = n.now + limit
	}
	for n.now < deadline && n.stepLimit(deadline) {
	}
	return n.now
}

// InFlight returns the number of active transfers.
func (n *Net) InFlight() int { return len(n.transfers) }

// timer and its heap -------------------------------------------------------

type timer struct {
	at  time.Duration
	seq int64
	fn  func(now time.Duration)
}

type timerHeap struct{ ts []timer }

func (h *timerHeap) less(i, j int) bool {
	if h.ts[i].at != h.ts[j].at {
		return h.ts[i].at < h.ts[j].at
	}
	return h.ts[i].seq < h.ts[j].seq
}

func (h *timerHeap) push(t timer) {
	h.ts = append(h.ts, t)
	i := len(h.ts) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.less(p, i) {
			break
		}
		h.ts[p], h.ts[i] = h.ts[i], h.ts[p]
		i = p
	}
}

func (h *timerHeap) peek() (timer, bool) {
	if len(h.ts) == 0 {
		return timer{}, false
	}
	return h.ts[0], true
}

func (h *timerHeap) pop() timer {
	top := h.ts[0]
	last := len(h.ts) - 1
	h.ts[0] = h.ts[last]
	h.ts = h.ts[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.ts) && h.less(l, small) {
			small = l
		}
		if r < len(h.ts) && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.ts[i], h.ts[small] = h.ts[small], h.ts[i]
		i = small
	}
	return top
}
