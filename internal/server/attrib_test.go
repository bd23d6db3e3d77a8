package server

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/ssd"
)

// attribBackend builds an instrumented Backend over a fresh engine for
// attribution tests.
func attribBackend(t *testing.T) (*Backend, *metrics.Registry) {
	t.Helper()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(256 << 20))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 8 << 20, GCThreshold: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	reg := metrics.NewRegistry()
	bk := NewBackend(db)
	bk.SetMetrics(reg)
	return bk, reg
}

func TestBackendAttributionSampling(t *testing.T) {
	bk, reg := attribBackend(t)
	bk.SetAttribution(4) // every 4th request measured
	ctx := context.Background()
	val := make([]byte, 4096)

	// Range is the op that must allocate: its reply over 2048 keys grows
	// through slices of 40 KB and more, which the runtime's counters see
	// at once (small objects are counted a span at a time). Put and Get
	// need not allocate at all.
	const keys = 2048
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("k-%04d", i))
		if err := bk.Put(ctx, key, 1, val[:16+4080*(i%2)], false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		key := []byte(fmt.Sprintf("k-%04d", i))
		if _, err := bk.Get(ctx, key, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if entries, _ := bk.Range(ctx, nil, nil, 0); len(entries) != keys {
			t.Fatalf("Range = %d entries, want %d", len(entries), keys)
		}
	}

	snap := bk.Attribution()
	if snap.SampleEvery != 4 {
		t.Fatalf("SampleEvery = %d, want 4", snap.SampleEvery)
	}
	byOp := make(map[string]metrics.AttribEntry)
	for _, e := range snap.Entries {
		byOp[e.Op] = e
	}
	for _, op := range []string{"put", "get", "range"} {
		e, ok := byOp[op]
		if !ok {
			t.Fatalf("op %q missing from attribution table: %+v", op, snap.Entries)
		}
		// At 1/4 sampling the 2048 puts see 512 samples, the 32 gets 8
		// and the 16 ranges 4.
		if e.Samples < 4 {
			t.Errorf("op %q samples = %d, want >= 4", op, e.Samples)
		}
		if e.AllocBytesPerOp < 0 {
			t.Errorf("op %q alloc bytes/op = %v, want >= 0", op, e.AllocBytesPerOp)
		}
		if e.WallUsPerOp <= 0 {
			t.Errorf("op %q wall us/op = %v, want > 0", op, e.WallUsPerOp)
		}
	}
	if got := byOp["range"].AllocBytesPerOp; got < 40<<10 {
		t.Errorf("range alloc bytes/op = %v, want at least its %d-entry reply", got, keys)
	}

	// The table is the only home of the sampled deltas: no per-op
	// alloc_bytes histogram shadows it in the registry.
	for name := range reg.Snapshot() {
		if strings.HasSuffix(name, ".alloc_bytes") {
			t.Errorf("registry exports %s beside the attribution table", name)
		}
	}

	// Disabling drops the table.
	bk.SetAttribution(0)
	if snap := bk.Attribution(); snap.SampleEvery != 0 || len(snap.Entries) != 0 {
		t.Fatalf("attribution after disable = %+v, want zero", snap)
	}
}

func TestBackendAttributionOffByDefault(t *testing.T) {
	bk, _ := attribBackend(t)
	ctx := context.Background()
	if err := bk.Put(ctx, []byte("k"), 1, []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	if snap := bk.Attribution(); len(snap.Entries) != 0 {
		t.Fatalf("attribution recorded while disabled: %+v", snap)
	}
}

// TestAttributionOverheadPut20KB is the overhead guard for continuous
// attribution: at the default 1/64 sampling the Put hot path must cost
// < 3% extra ns/op over the instrumented-only baseline. One backend is
// measured with attribution toggled off/on in alternating rounds (same
// engine, same device, same memtable) and the per-mode minimum is
// compared — min-of-rounds cancels GC and page-cache drift that would
// otherwise dwarf the effect being measured.
func TestAttributionOverheadPut20KB(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive overhead guard")
	}
	dev, err := ssd.NewDevice(ssd.DefaultConfig(2 << 30))
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 32 << 20, GCThreshold: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	bk := NewBackend(db)
	bk.SetMetrics(metrics.NewRegistry())

	ctx := context.Background()
	val := make([]byte, 20<<10)
	seq := 0
	round := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			key := []byte(fmt.Sprintf("key-%08d", seq))
			seq++
			if err := bk.Put(ctx, key, 1, val, false); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}

	// GC pauses landing in one side's rounds are the dominant noise on a
	// shared machine; park the collector for the measurement window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	const perRound = 250
	const rounds = 12
	sampled := false
	measure := func() float64 {
		runtime.GC()
		round(perRound) // warm-up after the GC
		minBase, minAttr := time.Duration(1<<62), time.Duration(1<<62)
		for r := 0; r < rounds; r++ {
			bk.SetAttribution(0)
			if d := round(perRound); d < minBase {
				minBase = d
			}
			bk.SetAttribution(64)
			if d := round(perRound); d < minAttr {
				minAttr = d
			}
			if snap := bk.Attribution(); len(snap.Entries) > 0 && snap.Entries[0].Samples > 0 {
				sampled = true
			}
		}
		base := float64(minBase) / perRound
		attr := float64(minAttr) / perRound
		overhead := (attr - base) / base
		t.Logf("put 20KB: base %.0f ns/op, attributed %.0f ns/op, overhead %.2f%%",
			base, attr, overhead*100)
		return overhead
	}

	// A real >= 3% cost shows up in every attempt; scheduler noise does
	// not. Retry a noisy attempt rather than flaking the suite.
	const attempts = 4
	var overhead float64
	for i := 0; i < attempts; i++ {
		if overhead = measure(); overhead < 0.03 {
			break
		}
	}
	if !sampled {
		t.Fatal("attribution rounds never sampled — the guard measured nothing")
	}
	if overhead >= 0.03 {
		t.Fatalf("1/64 attribution overhead %.2f%% on Put across %d attempts, want < 3%%",
			overhead*100, attempts)
	}
}
