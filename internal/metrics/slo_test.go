package metrics

import (
	"strings"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic window tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestSLONil(t *testing.T) {
	var s *SLO
	s.Record(true)
	s.Record(false)
	if s.Name() != "" || s.BurnRate(0) != 0 {
		t.Fatal("nil SLO must answer zero values")
	}
	if snap := s.Snapshot(); snap.Name != "" || len(snap.Windows) != 0 {
		t.Fatalf("nil SLO snapshot = %+v", snap)
	}
	s.Register(NewRegistry()) // must not panic
}

func TestSLORatioAndBurn(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{
		Name:    "fleet.read",
		Target:  0.006, // the paper's 0.6 % read-miss objective
		Windows: []time.Duration{time.Minute},
		Now:     clk.now,
	})
	for i := 0; i < 994; i++ {
		s.Record(true)
	}
	for i := 0; i < 6; i++ {
		s.Record(false)
	}
	snap := s.Snapshot()
	if len(snap.Windows) != 1 {
		t.Fatalf("windows = %d, want 1", len(snap.Windows))
	}
	w := snap.Windows[0]
	if w.Good != 994 || w.Bad != 6 {
		t.Fatalf("good/bad = %d/%d, want 994/6", w.Good, w.Bad)
	}
	if got, want := w.Ratio, 0.006; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("ratio = %g, want %g", got, want)
	}
	// 0.6 % observed against a 0.6 % target burns at exactly 1×.
	if got := w.BurnRate; got < 1-1e-9 || got > 1+1e-9 {
		t.Fatalf("burn = %g, want 1.0", got)
	}
	if snap.TotalGood != 994 || snap.TotalBad != 6 {
		t.Fatalf("totals = %d/%d", snap.TotalGood, snap.TotalBad)
	}
}

func TestSLOWindowSlides(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{
		Name:    "fleet.read",
		Target:  0.006,
		Windows: []time.Duration{time.Minute},
		Buckets: 60,
		Now:     clk.now,
	})
	for i := 0; i < 10; i++ {
		s.Record(false)
	}
	if got := s.BurnRate(time.Minute); got <= 0 {
		t.Fatalf("burn after misses = %g, want > 0", got)
	}
	// After more than a full window of wall time the misses expire.
	clk.advance(2 * time.Minute)
	if got := s.BurnRate(time.Minute); got != 0 {
		t.Fatalf("burn after window slid = %g, want 0", got)
	}
	snap := s.Snapshot()
	if w := snap.Windows[0]; w.Good != 0 || w.Bad != 0 {
		t.Fatalf("window still holds %d/%d after sliding", w.Good, w.Bad)
	}
	// Lifetime totals survive the slide.
	if snap.TotalBad != 10 {
		t.Fatalf("total bad = %d, want 10", snap.TotalBad)
	}
}

func TestSLOBurnEvents(t *testing.T) {
	clk := newFakeClock()
	ev := NewEventLog(16)
	s := NewSLO(SLOConfig{
		Name:    "fleet.read",
		Target:  0.01,
		Windows: []time.Duration{time.Minute},
		Events:  ev,
		Now:     clk.now,
	})
	s.Record(false) // ratio 1.0 >> target: crossing up
	evs := ev.Since(0, 0)
	if len(evs) != 1 || evs[0].Type != EventSLOBurn {
		t.Fatalf("events after burn = %+v, want one slo.burn", evs)
	}
	if !strings.Contains(evs[0].Detail, "fleet.read") || !strings.Contains(evs[0].Detail, "window=1m") {
		t.Fatalf("burn detail = %q", evs[0].Detail)
	}
	// Still burning: no duplicate event.
	s.Record(false)
	if got := len(ev.Since(0, 0)); got != 1 {
		t.Fatalf("duplicate burn events: %d", got)
	}
	// Slide the window clean and record a success: crossing down.
	clk.advance(2 * time.Minute)
	s.Record(true)
	evs = ev.Since(0, 0)
	if len(evs) != 2 || evs[1].Type != EventSLOClear {
		t.Fatalf("events after recovery = %+v, want slo.burn then slo.clear", evs)
	}
}

func TestSLORegisterGauges(t *testing.T) {
	clk := newFakeClock()
	reg := NewRegistry()
	s := NewSLO(SLOConfig{
		Name:    "fleet.read",
		Target:  0.5,
		Windows: []time.Duration{time.Minute},
		Now:     clk.now,
	})
	s.Register(reg)
	s.Record(false) // ratio 1.0, burn 2.0

	var sb strings.Builder
	if _, err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"slo_fleet_read_target 0.5",
		"slo_fleet_read_ratio_1m 1",
		"slo_fleet_read_burn_1m 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSLOBurnRateClosestWindow(t *testing.T) {
	clk := newFakeClock()
	s := NewSLO(SLOConfig{Name: "x", Target: 0.5, Now: clk.now}) // default 1m/5m/1h
	s.Record(false)
	// All windows hold the same single miss, so any width answers 2×;
	// the point is that the lookup picks a window rather than zero.
	for _, width := range []time.Duration{0, time.Minute, 7 * time.Minute, 2 * time.Hour} {
		if got := s.BurnRate(width); got < 2-1e-9 || got > 2+1e-9 {
			t.Fatalf("BurnRate(%s) = %g, want 2", width, got)
		}
	}
}

func TestDurLabel(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want string
	}{
		{time.Minute, "1m"},
		{5 * time.Minute, "5m"},
		{time.Hour, "1h"},
		{90 * time.Second, "90s"},
		{1500 * time.Millisecond, "1.5s"},
	}
	for _, c := range cases {
		if got := durLabel(c.in); got != c.want {
			t.Errorf("durLabel(%s) = %q, want %q", c.in, got, c.want)
		}
	}
}
