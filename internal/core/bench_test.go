package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"directload/internal/metrics"
)

func benchDB(b *testing.B) *DB {
	b.Helper()
	db, err := Open(testFS(b, 8192), testOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

// benchPut times Put of valLen-byte values under fresh keys — one caller
// at a time, or from GOMAXPROCS goroutines at once (writers serialise on
// DB.wmu: the parallel form measures what that costs them).
func benchPut(b *testing.B, valLen int, parallel bool) {
	db := benchDB(b)
	val := make([]byte, valLen)
	b.SetBytes(int64(len(val)))
	b.ReportAllocs()
	b.ResetTimer()
	if !parallel {
		for i := 0; i < b.N; i++ {
			key := []byte(fmt.Sprintf("key-%08d", i))
			if _, err := db.Put(key, 1, val, false); err != nil {
				b.Fatal(err)
			}
		}
		return
	}
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			key := []byte(fmt.Sprintf("key-%08d", next.Add(1)))
			if _, err := db.Put(key, 1, val, false); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkPut20KB(b *testing.B)         { benchPut(b, 20<<10, false) }
func BenchmarkPut128B(b *testing.B)         { benchPut(b, 128, false) }
func BenchmarkPut20KBParallel(b *testing.B) { benchPut(b, 20<<10, true) }

// benchGet times reads at version ver over 1024 keys of 20 KB, version 2
// being a dedup of version 1 (one extra skip-list hop, no extra I/O) —
// one caller at a time, or from GOMAXPROCS goroutines at once. With
// reuse each goroutine reads through GetAppend into one buffer of its own;
// without, every Get returns a new one.
func benchGet(b *testing.B, ver uint64, parallel, reuse bool) {
	db := benchDB(b)
	val := make([]byte, 20<<10)
	const n = 1024
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		db.Put(keys[i], 1, val, false)
		db.Put(keys[i], 2, nil, true)
	}
	var next atomic.Int64
	loop := func(more func() bool) {
		var dst []byte
		var err error
		for i := int(next.Add(n / 4)); more(); i++ { // goroutines start apart
			if reuse {
				dst, _, err = db.GetAppend(dst[:0], keys[i%n], ver)
			} else {
				_, _, err = db.Get(keys[i%n], ver)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	}
	b.SetBytes(int64(len(val)))
	b.ReportAllocs()
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) { loop(pb.Next) })
		return
	}
	i := 0
	loop(func() bool { i++; return i <= b.N })
}

func BenchmarkGet20KB(b *testing.B)       { benchGet(b, 1, false, false) }
func BenchmarkGetDedup(b *testing.B)      { benchGet(b, 2, false, false) }
func BenchmarkGetAppend20KB(b *testing.B) { benchGet(b, 1, false, true) }

// The parallel forms are the ones to read with -cpu 1,2,4: ns/op falls
// as readers are added only as far as Gets really overlap. A Get takes
// no exclusive engine lock and no store mutex; the blockfs mutex (once
// per read) and the device mutex (once per page) still serialize it.
func BenchmarkGet20KBParallel(b *testing.B)       { benchGet(b, 1, true, false) }
func BenchmarkGetDedupParallel(b *testing.B)      { benchGet(b, 2, true, false) }
func BenchmarkGetAppend20KBParallel(b *testing.B) { benchGet(b, 1, true, true) }

func BenchmarkDel(b *testing.B) {
	db := benchDB(b)
	for i := 0; i < b.N; i++ {
		if _, err := db.Put([]byte(fmt.Sprintf("key-%08d", i)), 1, []byte("v"), false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Del([]byte(fmt.Sprintf("key-%08d", i)), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecovery(b *testing.B) {
	fs := testFS(b, 8192)
	db, err := Open(fs, testOptions())
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 10<<10)
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("key-%06d", i)), 1, val, false)
	}
	db.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(fs, testOptions())
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

// BenchmarkPut20KBInstrumented is the registry-attached counterpart of
// BenchmarkPut20KB: comparing the two shows the observation overhead,
// and comparing allocs/op verifies the nil-registry path stays free.
func BenchmarkPut20KBInstrumented(b *testing.B) {
	opts := testOptions()
	opts.Metrics = metrics.NewRegistry()
	db, err := Open(testFS(b, 8192), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	val := make([]byte, 20<<10)
	b.SetBytes(int64(len(val)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%08d", i))
		if _, err := db.Put(key, 1, val, false); err != nil {
			b.Fatal(err)
		}
	}
}
