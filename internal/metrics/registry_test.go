package metrics

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("a.b")
	c2 := r.Counter("a.b")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	if r.Counter("a.c") == c1 {
		t.Fatal("distinct names must return distinct counters")
	}
	if r.Gauge("a.b") == nil || r.Histogram("a.b") == nil {
		t.Fatal("kinds are namespaced independently")
	}
	c1.Add(3)
	if got := r.Counter("a.b").Load(); got != 3 {
		t.Fatalf("counter value = %d, want 3", got)
	}
}

// TestNilHandlesNeverPanic pins the nil-receiver contract every
// subsystem relies on when it instruments through an optional registry:
// each exported method of each handle type, called on a nil receiver
// with zero-valued arguments, returns without panicking.
func TestNilHandlesNeverPanic(t *testing.T) {
	handles := []any{
		(*Registry)(nil), (*SlowLog)(nil), (*Counter)(nil),
		(*Gauge)(nil), (*Histogram)(nil), (*SLO)(nil), (*AttribTable)(nil),
	}
	for _, h := range handles {
		v := reflect.ValueOf(h)
		for i := 0; i < v.NumMethod(); i++ {
			m := v.Type().Method(i)
			t.Run(v.Type().Elem().Name()+"."+m.Name, func(t *testing.T) {
				args := make([]reflect.Value, m.Type.NumIn()-1)
				for j := range args {
					args[j] = reflect.Zero(m.Type.In(j + 1))
				}
				v.Method(i).Call(args)
			})
		}
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	if c != nil {
		t.Fatal("nil registry should hand out nil counters")
	}
	c.Inc() // must not panic
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	r.GaugeFunc("x", func() float64 { return 1 })
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("nil Snapshot = %v, want empty", snap)
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil WriteTo = %q, %v", sb.String(), err)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("shared.counter").Inc()
				r.Counter(fmt.Sprintf("own.%d", g)).Inc()
				r.Histogram("shared.hist").Observe(float64(i))
				r.Gauge("shared.gauge").Set(int64(i))
				if i%50 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared.counter").Load(); got != 4000 {
		t.Fatalf("shared counter = %d, want 4000", got)
	}
	snap := r.Snapshot()
	hs, ok := snap["shared.hist"].(Snapshot)
	if !ok || hs.Count != 4000 {
		t.Fatalf("shared.hist snapshot = %#v", snap["shared.hist"])
	}
	if !(hs.P50 <= hs.P99 && hs.P99 <= hs.P999 && hs.P999 <= hs.Max) {
		t.Fatalf("inconsistent histogram snapshot: %+v", hs)
	}
}

func TestRegistrySnapshotConsistencyUnderLoad(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := float64(g)
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Histogram("lat").Observe(v)
				v = v*1.3 + 1
				if v > 1e6 {
					v = 0
				}
			}
		}(g)
	}
	for i := 0; i < 100; i++ {
		snap := r.Snapshot()
		s, ok := snap["lat"].(Snapshot)
		if !ok || s.Count == 0 {
			continue
		}
		if s.P99 > s.Max || s.P50 > s.P99 {
			t.Errorf("P99 %v > Max %v (or P50 > P99): %+v", s.P99, s.Max, s)
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistryGaugeFunc(t *testing.T) {
	r := NewRegistry()
	user := r.Counter("user.bytes")
	disk := r.Counter("disk.bytes")
	r.GaugeFunc("wa", func() float64 {
		u := user.Load()
		if u == 0 {
			return 0
		}
		return float64(disk.Load()) / float64(u)
	})
	user.Add(100)
	disk.Add(250)
	snap := r.Snapshot()
	if got, ok := snap["wa"].(float64); !ok || got != 2.5 {
		t.Fatalf("wa = %#v, want 2.5", snap["wa"])
	}
}

func TestRegistryWriteToAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(7)
	r.Gauge("a.gauge").Set(-3)
	r.Histogram("c.lat").Observe(42)
	r.GaugeFunc("d.ratio", func() float64 { return 0.5 })

	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("WriteTo lines = %d: %q", len(lines), out)
	}
	// Sorted by name.
	for i, prefix := range []string{"a.gauge -3", "b.count 7", "c.lat count=1", "d.ratio 0.5"} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}

	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["b.count"].(float64) != 7 {
		t.Fatalf("json b.count = %v", decoded["b.count"])
	}
	hist, ok := decoded["c.lat"].(map[string]any)
	if !ok || hist["count"].(float64) != 1 || hist["max"].(float64) != 42 {
		t.Fatalf("json c.lat = %#v", decoded["c.lat"])
	}
}
