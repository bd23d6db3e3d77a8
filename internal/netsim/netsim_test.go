package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func twoNode(t *testing.T, bw float64) (*Net, *Link) {
	t.Helper()
	n := New()
	n.AddNode("a")
	n.AddNode("b")
	l, err := n.AddLink("a", "b", bw, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n, l
}

func TestSingleTransferTiming(t *testing.T) {
	n, l := twoNode(t, 100) // 100 B/s
	var doneAt time.Duration
	_, err := n.Send([]*Link{l}, ClassDefault, 500, func(tr *Transfer, now time.Duration) {
		doneAt = now
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	if doneAt != 5*time.Second {
		t.Fatalf("doneAt = %v, want 5s", doneAt)
	}
	if n.InFlight() != 0 {
		t.Fatalf("InFlight = %d", n.InFlight())
	}
}

func TestFairSharing(t *testing.T) {
	n, l := twoNode(t, 100)
	var first, second time.Duration
	n.Send([]*Link{l}, ClassDefault, 500, func(tr *Transfer, now time.Duration) { first = now })
	n.Send([]*Link{l}, ClassDefault, 500, func(tr *Transfer, now time.Duration) { second = now })
	n.Run(0)
	// Both share 100 B/s: each gets 50 B/s, both finish at t=10s.
	if first != 10*time.Second || second != 10*time.Second {
		t.Fatalf("finish times = %v, %v; want 10s each", first, second)
	}
}

func TestShorterTransferFreesBandwidth(t *testing.T) {
	n, l := twoNode(t, 100)
	var bigDone time.Duration
	n.Send([]*Link{l}, ClassDefault, 1000, func(tr *Transfer, now time.Duration) { bigDone = now })
	n.Send([]*Link{l}, ClassDefault, 100, nil)
	n.Run(0)
	// Phase 1: both at 50 B/s until small (100B) finishes at t=2s; big has
	// 900 left, then runs at 100 B/s for 9s -> 11s total.
	if bigDone != 11*time.Second {
		t.Fatalf("bigDone = %v, want 11s", bigDone)
	}
}

func TestReservation4060(t *testing.T) {
	// The paper's empirical split: 40% summary, 60% inverted.
	n := New()
	n.AddNode("a")
	n.AddNode("b")
	l, _ := n.AddLink("a", "b", 100, map[Class]float64{
		ClassSummary:  0.4,
		ClassInverted: 0.6,
	})
	var sumDone, invDone time.Duration
	n.Send([]*Link{l}, ClassSummary, 400, func(tr *Transfer, now time.Duration) { sumDone = now })
	n.Send([]*Link{l}, ClassInverted, 600, func(tr *Transfer, now time.Duration) { invDone = now })
	n.Run(0)
	// Summary: 40 B/s for 400B = 10s. Inverted: 60 B/s for 600B = 10s.
	// The reservation makes both streams arrive simultaneously — exactly
	// the property §2.2 wants.
	if sumDone != 10*time.Second || invDone != 10*time.Second {
		t.Fatalf("summary=%v inverted=%v, want both 10s", sumDone, invDone)
	}
}

func TestIdleReservationLentOut(t *testing.T) {
	n := New()
	n.AddNode("a")
	n.AddNode("b")
	l, _ := n.AddLink("a", "b", 100, map[Class]float64{
		ClassSummary:  0.4,
		ClassInverted: 0.6,
	})
	var done time.Duration
	// Only the summary stream is active: it should get the full link.
	n.Send([]*Link{l}, ClassSummary, 1000, func(tr *Transfer, now time.Duration) { done = now })
	n.Run(0)
	if done != 10*time.Second {
		t.Fatalf("done = %v, want 10s (idle reservation lent out)", done)
	}
}

func TestMultiHopBottleneck(t *testing.T) {
	n := New()
	for _, id := range []NodeID{"a", "b", "c"} {
		n.AddNode(id)
	}
	l1, _ := n.AddLink("a", "b", 100, nil)
	l2, _ := n.AddLink("b", "c", 10, nil) // bottleneck
	var done time.Duration
	n.Send([]*Link{l1, l2}, ClassDefault, 100, func(tr *Transfer, now time.Duration) { done = now })
	n.Run(0)
	if done != 10*time.Second {
		t.Fatalf("done = %v, want 10s (bottleneck 10 B/s)", done)
	}
}

func TestRouting(t *testing.T) {
	n := New()
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		n.AddNode(id)
	}
	n.AddLink("a", "b", 100, nil)
	n.AddLink("b", "d", 100, nil)
	n.AddLink("a", "c", 100, nil)
	n.AddLink("c", "d", 100, nil)
	n.AddLink("a", "d", 100, nil) // direct: 1 hop
	path, err := n.Route("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0].From != "a" || path[0].To != "d" {
		t.Fatalf("Route picked %d hops, want direct link", len(path))
	}
	// Down the direct link: a 2-hop route must be found.
	n.SetLinkDown("a", "d", true)
	path, err = n.Route("a", "d")
	if err != nil || len(path) != 2 {
		t.Fatalf("Route after failure = %d hops, %v", len(path), err)
	}
	// No route at all.
	n.SetLinkDown("a", "b", true)
	n.SetLinkDown("a", "c", true)
	if _, err := n.Route("a", "d"); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("want ErrNoRoute, got %v", err)
	}
}

func TestLinkFailureFailsTransfers(t *testing.T) {
	n, l := twoNode(t, 100)
	var failed error
	n.Send([]*Link{l}, ClassDefault, 1000, func(tr *Transfer, now time.Duration) { failed = tr.Failed })
	n.After(2*time.Second, func(now time.Duration) {
		n.SetLinkDown("a", "b", true)
	})
	n.Run(0)
	if !errors.Is(failed, ErrLinkDown) {
		t.Fatalf("transfer should fail with ErrLinkDown, got %v", failed)
	}
}

func TestSendValidation(t *testing.T) {
	n, l := twoNode(t, 100)
	if _, err := n.Send([]*Link{l}, ClassDefault, 0, nil); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("zero payload err = %v", err)
	}
	if _, err := n.Send(nil, ClassDefault, 10, nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("empty path err = %v", err)
	}
	n.SetLinkDown("a", "b", true)
	if _, err := n.Send([]*Link{l}, ClassDefault, 10, nil); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("down link err = %v", err)
	}
	if _, err := n.AddLink("a", "b", 1, nil); !errors.Is(err, ErrDupLink) {
		t.Fatalf("dup link err = %v", err)
	}
	if _, err := n.AddLink("a", "zz", 1, nil); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown node err = %v", err)
	}
}

func TestTimers(t *testing.T) {
	n, _ := twoNode(t, 100)
	var fired []time.Duration
	n.After(3*time.Second, func(now time.Duration) { fired = append(fired, now) })
	n.After(1*time.Second, func(now time.Duration) { fired = append(fired, now) })
	n.After(2*time.Second, func(now time.Duration) {
		fired = append(fired, now)
		n.After(time.Second, func(now time.Duration) { fired = append(fired, now) })
	})
	n.Run(0)
	want := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second, 3 * time.Second}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestRunLimit(t *testing.T) {
	n, l := twoNode(t, 1)
	n.Send([]*Link{l}, ClassDefault, 1e9, nil) // would take ~31 years
	end := n.Run(5 * time.Second)
	if end > 6*time.Second {
		t.Fatalf("Run overshot limit: %v", end)
	}
	if n.InFlight() != 1 {
		t.Fatal("transfer should still be in flight at the limit")
	}
}

func TestMonitorPrediction(t *testing.T) {
	n, l := twoNode(t, 100)
	m := NewMonitor(n, time.Second, 0.5)
	// Saturate the link for 10 seconds.
	n.Send([]*Link{l}, ClassDefault, 1000, nil)
	n.Run(0)
	if m.Samples() == 0 {
		t.Fatal("monitor took no samples")
	}
	// The link was 100% busy: prediction should be near zero.
	if p := m.PredictedAvailable(n, "a", "b"); p > 10 {
		t.Fatalf("predicted available = %v, want near 0", p)
	}
	// Unknown link defaults to capacity / zero.
	if p := m.PredictedAvailable(n, "b", "a"); p != 0 {
		t.Fatalf("unknown link prediction = %v", p)
	}
}

func TestLinkStats(t *testing.T) {
	n, l := twoNode(t, 100)
	n.Send([]*Link{l}, ClassDefault, 500, nil)
	n.Run(0)
	sent, busy, ok := n.LinkStats("a", "b")
	if !ok || math.Abs(sent-500) > 1e-6 || busy != 5*time.Second {
		t.Fatalf("LinkStats = %v, %v, %v", sent, busy, ok)
	}
	if _, _, ok := n.LinkStats("x", "y"); ok {
		t.Fatal("unknown link should report !ok")
	}
}

func TestRouteSameNode(t *testing.T) {
	n, _ := twoNode(t, 100)
	path, err := n.Route("a", "a")
	if err != nil || path != nil {
		t.Fatalf("Route(a,a) = %v, %v", path, err)
	}
}

func TestManyTransfersConservation(t *testing.T) {
	// Property: total bytes delivered equals the sum of payload sizes,
	// and the elapsed time is at least total/capacity.
	n, l := twoNode(t, 1000)
	var delivered float64
	const k = 50
	for i := 0; i < k; i++ {
		size := float64(100 + 37*i)
		n.Send([]*Link{l}, ClassDefault, size, func(tr *Transfer, now time.Duration) {
			delivered += tr.Sent
		})
	}
	end := n.Run(0)
	var total float64
	for i := 0; i < k; i++ {
		total += float64(100 + 37*i)
	}
	if math.Abs(delivered-total) > 1 {
		t.Fatalf("delivered %v of %v bytes", delivered, total)
	}
	minTime := time.Duration(total / 1000 * float64(time.Second))
	if end < minTime-time.Millisecond {
		t.Fatalf("finished in %v, capacity bound is %v", end, minTime)
	}
}

func TestCancelTransfer(t *testing.T) {
	n, l := twoNode(t, 100)
	var failed error
	var doneAt time.Duration
	tr, err := n.Send([]*Link{l}, ClassDefault, 1000, func(tr *Transfer, now time.Duration) {
		failed = tr.Failed
		doneAt = now
	})
	if err != nil {
		t.Fatal(err)
	}
	n.After(2*time.Second, func(now time.Duration) {
		if !n.Cancel(tr) {
			t.Error("Cancel of in-flight transfer should succeed")
		}
	})
	n.Run(0)
	if !errors.Is(failed, ErrCancelled) {
		t.Fatalf("failed = %v, want ErrCancelled", failed)
	}
	if doneAt != 2*time.Second {
		t.Fatalf("cancelled at %v, want 2s", doneAt)
	}
	if n.Cancel(tr) {
		t.Fatal("double Cancel should be a no-op")
	}
	// Bandwidth freed: a new transfer gets the full link.
	var secondDone time.Duration
	n.Send([]*Link{l}, ClassDefault, 100, func(tr *Transfer, now time.Duration) { secondDone = now })
	n.Run(0)
	if secondDone != 3*time.Second {
		t.Fatalf("post-cancel transfer finished at %v, want 3s", secondDone)
	}
}

// TestReservationComplianceUnderSaturation: with both streams saturating
// a reserved link, the byte split converges to the 40/60 reservation.
func TestReservationComplianceUnderSaturation(t *testing.T) {
	n := New()
	n.AddNode("a")
	n.AddNode("b")
	l, _ := n.AddLink("a", "b", 100, map[Class]float64{
		ClassSummary:  0.4,
		ClassInverted: 0.6,
	})
	// Far more offered load than capacity in both classes.
	for i := 0; i < 10; i++ {
		n.Send([]*Link{l}, ClassSummary, 1000, nil)
		n.Send([]*Link{l}, ClassInverted, 1000, nil)
	}
	n.Run(100 * time.Second) // partial drain under contention
	sum, _ := n.LinkClassBytes("a", "b", ClassSummary)
	inv, _ := n.LinkClassBytes("a", "b", ClassInverted)
	total := sum + inv
	if total == 0 {
		t.Fatal("no traffic moved")
	}
	if share := sum / total; share < 0.35 || share > 0.45 {
		t.Fatalf("summary share = %.3f, want ~0.40", share)
	}
	if _, ok := n.LinkClassBytes("a", "zz", ClassSummary); ok {
		t.Fatal("unknown link should report !ok")
	}
}

// Property: on random star topologies with random transfers, every byte
// offered is delivered, and the finish time respects the per-link
// capacity lower bound.
func TestQuickConservation(t *testing.T) {
	f := func(sizes []uint16, fanout uint8, seed int64) bool {
		spokes := int(fanout%6) + 1
		n := New()
		n.AddNode("hub")
		var links []*Link
		for i := 0; i < spokes; i++ {
			id := NodeID(fmt.Sprintf("s%d", i))
			n.AddNode(id)
			l, err := n.AddLink("hub", id, float64(100+50*i), nil)
			if err != nil {
				return false
			}
			links = append(links, l)
		}
		rng := rand.New(rand.NewSource(seed))
		offered := make([]float64, spokes)
		var delivered float64
		count := 0
		for _, sz := range sizes {
			if count >= 40 {
				break
			}
			size := float64(sz%5000) + 1
			spoke := rng.Intn(spokes)
			offered[spoke] += size
			n.Send([]*Link{links[spoke]}, ClassDefault, size, func(tr *Transfer, now time.Duration) {
				delivered += tr.Sent
			})
			count++
		}
		end := n.Run(0)
		var total float64
		for _, o := range offered {
			total += o
		}
		if math.Abs(delivered-total) > 1 {
			return false
		}
		// Lower bound: the most loaded link needs offered/bandwidth time.
		var bound time.Duration
		for i, o := range offered {
			b := time.Duration(o / links[i].Bandwidth * float64(time.Second))
			if b > bound {
				bound = b
			}
		}
		return end >= bound-time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
