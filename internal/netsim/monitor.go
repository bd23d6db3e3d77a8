package netsim

import "time"

// Monitor is the centralized network monitoring platform of paper §2.2:
// it samples per-link utilization on a fixed virtual-time cadence and
// predicts available bandwidth per channel with an exponentially weighted
// moving average. Bifrost's scheduler consults the predictions to steer
// index streams around channels sustaining high traffic.
type Monitor struct {
	interval time.Duration
	alpha    float64 // EWMA smoothing factor
	lastAt   time.Duration
	lastSent map[string]float64
	predict  map[string]float64 // bytes/sec predicted available
	samples  int64
}

// NewMonitor attaches a monitor to the network, sampling every interval
// of virtual time. alpha in (0,1] weighs recent samples.
func NewMonitor(n *Net, interval time.Duration, alpha float64) *Monitor {
	m := &Monitor{
		interval: interval,
		alpha:    alpha,
		lastSent: make(map[string]float64),
		predict:  make(map[string]float64),
	}
	n.monitor = m
	return m
}

// maybeSample records utilization samples once at least a full interval
// has elapsed. Because the simulator is event-driven, several intervals
// may pass between calls; the observed byte rate over the whole elapsed
// span is applied to each crossed interval (fluid-flow attribution).
func (m *Monitor) maybeSample(n *Net) {
	span := n.now - m.lastAt
	if span < m.interval {
		return
	}
	k := int64(span / m.interval)
	secs := span.Seconds()
	for key, l := range n.links {
		used := (l.sentBytes - m.lastSent[key]) / secs
		avail := l.Bandwidth - used
		if avail < 0 {
			avail = 0
		}
		p, ok := m.predict[key]
		if !ok {
			p = avail
		}
		for i := int64(0); i < k; i++ {
			p = m.alpha*avail + (1-m.alpha)*p
		}
		m.predict[key] = p
		m.lastSent[key] = l.sentBytes
	}
	m.lastAt += time.Duration(k) * m.interval
	m.samples += k
}

// PredictedAvailable returns the monitor's bandwidth prediction for the
// link from→to, defaulting to the raw capacity before the first sample.
func (m *Monitor) PredictedAvailable(n *Net, from, to NodeID) float64 {
	l, ok := n.LinkBetween(from, to)
	if !ok {
		return 0
	}
	if p, ok := m.predict[l.key()]; ok {
		return p
	}
	return l.Bandwidth
}

// Samples returns how many sampling rounds have run.
func (m *Monitor) Samples() int64 { return m.samples }

// LinkStats reports cumulative bytes and busy time for a link.
func (n *Net) LinkStats(from, to NodeID) (sentBytes float64, busy time.Duration, ok bool) {
	l, found := n.LinkBetween(from, to)
	if !found {
		return 0, 0, false
	}
	return l.sentBytes, l.busy, true
}

// LinkClassBytes reports cumulative bytes one traffic class moved over a
// link — the observable behind reservation-compliance checks.
func (n *Net) LinkClassBytes(from, to NodeID, cls Class) (float64, bool) {
	l, found := n.LinkBetween(from, to)
	if !found || cls < 0 || cls >= numClasses {
		return 0, false
	}
	return l.sentByCls[cls], true
}
