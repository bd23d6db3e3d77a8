package server

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/ssd"
)

// benchNode starts a server over a fresh engine for benchmarking.
func benchNode(b *testing.B) string {
	b.Helper()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(1 << 30))
	if err != nil {
		b.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 16 << 20, GCThreshold: 0.25},
	})
	if err != nil {
		b.Fatal(err)
	}
	s := New(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go s.Serve(ln)
	b.Cleanup(func() {
		s.Close()
		db.Close()
	})
	return ln.Addr().String()
}

// publishEntries is one version's worth of records — the 10k-entry
// remote version publish the acceptance bar measures.
const publishEntries = 10000

func benchKV(version uint64, i int) ([]byte, []byte) {
	return []byte(fmt.Sprintf("bench/%05d", i)),
		[]byte(fmt.Sprintf("payload-%d-%05d-0123456789abcdef", version, i))
}

// BenchmarkRemotePublish compares publishing a 10k-entry version over
// the wire three ways: one blocking round trip per record, individual
// puts pipelined by 256 concurrent callers, and OpBatch frames. The per-op
// figure to compare is ns/op divided by publishEntries.
func BenchmarkRemotePublish(b *testing.B) {
	b.Run("naive", func(b *testing.B) {
		addr := benchNode(b)
		cl, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		ctx := context.Background()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			version := uint64(n + 1)
			for i := 0; i < publishEntries; i++ {
				key, val := benchKV(version, i)
				if err := cl.PutContext(ctx, key, version, val, false); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(publishEntries*b.N)/b.Elapsed().Seconds(), "puts/s")
	})
	b.Run("pipelined", func(b *testing.B) {
		addr := benchNode(b)
		cl, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		ctx := context.Background()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			version := uint64(n + 1)
			// Concurrent callers keep the connection's window full.
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 256; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < publishEntries; i = int(next.Add(1)) - 1 {
						key, val := benchKV(version, i)
						if err := cl.PutContext(ctx, key, version, val, false); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
		b.ReportMetric(float64(publishEntries*b.N)/b.Elapsed().Seconds(), "puts/s")
	})
	b.Run("batched", func(b *testing.B) {
		addr := benchNode(b)
		cl, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		ctx := context.Background()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			version := uint64(n + 1)
			batch := cl.Batcher()
			for i := 0; i < publishEntries; i++ {
				key, val := benchKV(version, i)
				if err := batch.Put(ctx, key, version, val, false); err != nil {
					b.Fatal(err)
				}
			}
			if err := batch.Flush(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(publishEntries*b.N)/b.Elapsed().Seconds(), "puts/s")
	})
}

// benchBackend builds a bare Backend (no listener) over a fresh engine,
// instrumented with a registry — the baseline every attribution figure
// is compared against.
func benchBackend(b *testing.B) *Backend {
	b.Helper()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(1 << 30))
	if err != nil {
		b.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 16 << 20, GCThreshold: 0.25},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	bk := NewBackend(db)
	bk.SetMetrics(metrics.NewRegistry())
	return bk
}

func benchBackendPut20KB(b *testing.B, attrEvery int) {
	bk := benchBackend(b)
	bk.SetAttribution(attrEvery)
	ctx := context.Background()
	val := make([]byte, 20<<10)
	b.SetBytes(int64(len(val)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%08d", i))
		if err := bk.Put(ctx, key, 1, val, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPut20KBBackend is the Backend twin of the engine-level
// BenchmarkPut20KBInstrumented: one instrumented put through the shared
// execution path, no wire.
func BenchmarkPut20KBBackend(b *testing.B) { benchBackendPut20KB(b, 0) }

// BenchmarkPut20KBAttributed is BenchmarkPut20KBBackend with 1/64
// resource attribution sampling enabled — the delta between the two is
// the price of continuous attribution, guarded below 3% by
// TestAttributionOverheadPut20KB.
func BenchmarkPut20KBAttributed(b *testing.B) { benchBackendPut20KB(b, 64) }
