package metrics

import (
	"fmt"
	"sync"
	"time"
)

// Default SLO shape: the paper's fleet-level objectives are reported
// over short control windows (is the fleet burning budget right now?)
// and a long accounting window (how did the day go?). 1m/5m/1h is the
// classic multi-window burn-rate ladder.
var defaultSLOWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// defaultSLOBuckets is the per-window ring resolution: each window is
// split into this many buckets, so the sliding window advances in
// window/buckets steps instead of jumping a full window at a time.
const defaultSLOBuckets = 60

// SLOConfig shapes one service-level objective tracker.
type SLOConfig struct {
	// Name labels the objective ("fleet.read", "cluster.cycle").
	Name string
	// Target is the tolerated bad-event ratio — the paper's read-miss
	// SLO of 0.6 % is 0.006. A burn rate of 1.0 means the budget is
	// being consumed exactly as fast as the objective allows.
	Target float64
	// Windows are the sliding windows tracked (default 1m, 5m, 1h).
	Windows []time.Duration
	// Buckets is the ring resolution per window (default 60).
	Buckets int
	// BurnThreshold is the burn rate at or above which a window is
	// "burning" and a crossing event is emitted (default 1.0).
	BurnThreshold float64
	// Events, when non-nil, receives slo.burn / slo.clear events on
	// threshold crossings.
	Events *EventLog
	// Now overrides the clock (tests). Defaults to time.Now.
	Now func() time.Time
}

// sloWindow is one sliding window: a ring of good/bad buckets plus
// running sums, advanced lazily against the absolute bucket index so an
// idle stretch costs one pass over the ring, not one per bucket.
type sloWindow struct {
	width   time.Duration
	bucket  time.Duration
	good    []int64
	bad     []int64
	sumGood int64
	sumBad  int64
	cur     int64 // absolute bucket index currently accumulating
	burning bool  // above the burn threshold as of the last check
}

// advance rotates the ring forward to the bucket containing now,
// clearing (and un-summing) every bucket that fell out of the window.
func (w *sloWindow) advance(now time.Time) {
	abs := now.UnixNano() / int64(w.bucket)
	if abs <= w.cur {
		return
	}
	steps := abs - w.cur
	if steps > int64(len(w.good)) {
		steps = int64(len(w.good))
	}
	for i := int64(1); i <= steps; i++ {
		slot := int((w.cur + i) % int64(len(w.good)))
		w.sumGood -= w.good[slot]
		w.sumBad -= w.bad[slot]
		w.good[slot] = 0
		w.bad[slot] = 0
	}
	w.cur = abs
}

// ratio returns the window's bad-event ratio (0 when empty).
func (w *sloWindow) ratio() float64 {
	total := w.sumGood + w.sumBad
	if total == 0 {
		return 0
	}
	return float64(w.sumBad) / float64(total)
}

// SLO tracks one service-level objective over several sliding windows:
// callers record good/bad events (read hit/miss, cycle within/over
// deadline) and the tracker answers ratio and burn-rate queries per
// window. Crossing the burn threshold in any window emits a structured
// event, so an operator sees "the 5m read-miss burn rate exceeded 1×"
// in /events rather than reconstructing it from counters. All methods
// are safe for concurrent use and no-ops on a nil receiver.
type SLO struct {
	name          string
	target        float64
	burnThreshold float64
	events        *EventLog
	now           func() time.Time

	mu        sync.Mutex
	windows   []*sloWindow
	totalGood int64
	totalBad  int64
}

// NewSLO builds a tracker for cfg, filling defaults for zero fields.
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Name == "" {
		cfg.Name = "slo"
	}
	if len(cfg.Windows) == 0 {
		cfg.Windows = defaultSLOWindows
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = defaultSLOBuckets
	}
	if cfg.BurnThreshold <= 0 {
		cfg.BurnThreshold = 1.0
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &SLO{
		name:          cfg.Name,
		target:        cfg.Target,
		burnThreshold: cfg.BurnThreshold,
		events:        cfg.Events,
		now:           cfg.Now,
	}
	for _, width := range cfg.Windows {
		if width <= 0 {
			continue
		}
		bucket := width / time.Duration(cfg.Buckets)
		if bucket <= 0 {
			bucket = time.Duration(1)
		}
		s.windows = append(s.windows, &sloWindow{
			width:  width,
			bucket: bucket,
			good:   make([]int64, cfg.Buckets),
			bad:    make([]int64, cfg.Buckets),
		})
	}
	return s
}

// Name returns the objective's label ("" on nil).
func (s *SLO) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Record adds one event to every window: good=true for an event within
// the objective (read hit, cycle on time), false for a violation.
// Crossing the burn threshold in either direction emits slo.burn /
// slo.clear into the attached event log.
func (s *SLO) Record(good bool) {
	if s == nil {
		return
	}
	now := s.now()
	type crossing struct {
		up     bool
		window time.Duration
		burn   float64
	}
	var crossings []crossing
	s.mu.Lock()
	if good {
		s.totalGood++
	} else {
		s.totalBad++
	}
	for _, w := range s.windows {
		w.advance(now)
		slot := int(w.cur % int64(len(w.good)))
		if good {
			w.good[slot]++
			w.sumGood++
		} else {
			w.bad[slot]++
			w.sumBad++
		}
		burn := s.burnLocked(w)
		if burning := burn >= s.burnThreshold && s.target > 0; burning != w.burning {
			w.burning = burning
			crossings = append(crossings, crossing{up: burning, window: w.width, burn: burn})
		}
	}
	s.mu.Unlock()
	for _, c := range crossings {
		typ := EventSLOBurn
		if !c.up {
			typ = EventSLOClear
		}
		s.events.Emit(typ, "", 0, fmt.Sprintf("%s window=%s burn=%.2fx target=%g",
			s.name, durLabel(c.window), c.burn, s.target))
	}
}

// burnLocked is the window's burn rate: bad-event ratio over the
// target. A zero target reports 0 (no budget defined, nothing burns).
func (s *SLO) burnLocked(w *sloWindow) float64 {
	if s.target <= 0 {
		return 0
	}
	return w.ratio() / s.target
}

// SLOWindowSnapshot is one window's view at snapshot time.
type SLOWindowSnapshot struct {
	Window   string        `json:"window"` // "1m", "5m", "1h"
	Width    time.Duration `json:"width_ns"`
	Good     int64         `json:"good"`
	Bad      int64         `json:"bad"`
	Ratio    float64       `json:"ratio"`
	BurnRate float64       `json:"burn_rate"`
}

// SLOSnapshot is the full tracker state served by /slo and recorded by
// the time-series recorder.
type SLOSnapshot struct {
	Name      string              `json:"name"`
	Target    float64             `json:"target"`
	TotalGood int64               `json:"total_good"`
	TotalBad  int64               `json:"total_bad"`
	Windows   []SLOWindowSnapshot `json:"windows"`
}

// Snapshot advances every window to now and returns a consistent view.
// The zero value (empty Name) is returned on a nil receiver.
func (s *SLO) Snapshot() SLOSnapshot {
	if s == nil {
		return SLOSnapshot{}
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SLOSnapshot{
		Name:      s.name,
		Target:    s.target,
		TotalGood: s.totalGood,
		TotalBad:  s.totalBad,
	}
	for _, w := range s.windows {
		w.advance(now)
		snap.Windows = append(snap.Windows, SLOWindowSnapshot{
			Window:   durLabel(w.width),
			Width:    w.width,
			Good:     w.sumGood,
			Bad:      w.sumBad,
			Ratio:    w.ratio(),
			BurnRate: s.burnLocked(w),
		})
	}
	return snap
}

// BurnRate returns the burn rate of the window closest to width (the
// shortest window when width is 0). Returns 0 on nil or no windows.
func (s *SLO) BurnRate(width time.Duration) float64 {
	if s == nil {
		return 0
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *sloWindow
	for _, w := range s.windows {
		if best == nil {
			best = w
			continue
		}
		if abs(w.width-width) < abs(best.width-width) {
			best = w
		}
	}
	if best == nil {
		return 0
	}
	best.advance(now)
	return s.burnLocked(best)
}

func abs(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// Register exposes the tracker on a registry as computed gauges —
// slo.<name>.ratio.<window>, slo.<name>.burn.<window> and
// slo.<name>.target — so the Prometheus exposition and JSON snapshots
// carry the SLO without extra plumbing. Safe on nil receiver/registry.
func (s *SLO) Register(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.GaugeFunc("slo."+s.name+".target", func() float64 { return s.target })
	s.mu.Lock()
	widths := make([]time.Duration, 0, len(s.windows))
	for _, w := range s.windows {
		widths = append(widths, w.width)
	}
	s.mu.Unlock()
	for _, width := range widths {
		width := width
		label := durLabel(width)
		reg.GaugeFunc(fmt.Sprintf("slo.%s.ratio.%s", s.name, label), func() float64 {
			for _, ws := range s.Snapshot().Windows {
				if ws.Width == width {
					return ws.Ratio
				}
			}
			return 0
		})
		reg.GaugeFunc(fmt.Sprintf("slo.%s.burn.%s", s.name, label), func() float64 {
			return s.BurnRate(width)
		})
	}
}

// durLabel renders a window width compactly for metric names and event
// details: 1m, 5m, 1h, 90s — not time.Duration's "1m0s".
func durLabel(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	case d >= time.Second && d%time.Second == 0:
		return fmt.Sprintf("%ds", d/time.Second)
	default:
		return d.String()
	}
}
