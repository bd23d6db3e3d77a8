package server

import (
	"context"
	"fmt"
	"net"
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
// the wire two ways: one blocking round trip per record, and OpBatch
// frames. The per-op
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

// BenchmarkRemoteGet20KB reads 20 KB values over the native wire:
// closed-loop GETs on one connection, each of which finds the connection
// idle, and the same under b.RunParallel over two clients (beyond two
// goroutines, callers queue on each client). Run it with
// -benchmem: client and server share the process, so B/op and allocs/op
// are both sides' (the client's share includes the 20 KB value it returns).
func BenchmarkRemoteGet20KB(b *testing.B) {
	const keys = 256
	addr := benchNode(b)
	ctx := context.Background()
	dial := func() *Client {
		cl, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cl.Close() })
		return cl
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("get20k/%04d", i%keys)) }
	val := make([]byte, 20<<10)
	batch := dial().Batcher()
	for i := 0; i < keys; i++ {
		if err := batch.Put(ctx, key(i), 1, val, false); err != nil {
			b.Fatal(err)
		}
	}
	if err := batch.Flush(ctx); err != nil {
		b.Fatal(err)
	}
	get := func(cl *Client, i int) error {
		if got, err := cl.GetContext(ctx, key(i), 1); err != nil || len(got) != len(val) {
			return fmt.Errorf("GET = %d bytes, %v", len(got), err)
		}
		return nil
	}
	b.Run("closed", func(b *testing.B) {
		cl := dial()
		b.SetBytes(int64(len(val)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := get(cl, i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel2", func(b *testing.B) {
		conns := []*Client{dial(), dial()}
		var next atomic.Int64
		b.SetBytes(int64(len(val)))
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			n := int(next.Add(1))
			for i := n; pb.Next(); i++ {
				if err := get(conns[n%len(conns)], i); err != nil {
					b.Error(err)
					return
				}
			}
		})
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
