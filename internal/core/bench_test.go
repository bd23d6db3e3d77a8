package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

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
// being a dedup of version 1 (one extra memtable probe, no extra I/O) —
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

// benchSmall times resp-small's engine calls: one version of 100,000
// 20-byte keys with 128-byte values, then Gets (into one reused buffer)
// or overwriting Puts at uniformly random keys. Here the memtable probe
// is a visible share of a call; over benchGet's 1,024 keys it is not.
func benchSmall(b *testing.B, put bool) {
	db := benchDB(b)
	const n = 100000
	val := make([]byte, 128)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("r%019d", i))
		if _, err := db.Put(keys[i], 1, val, false); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[rng.Intn(n)]
		var err error
		if put {
			_, err = db.Put(key, 1, val, false)
		} else {
			dst, _, err = db.GetAppend(dst[:0], key, 1)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet128B100k(b *testing.B) { benchSmall(b, false) }
func BenchmarkPut128B100k(b *testing.B) { benchSmall(b, true) }

// BenchmarkRange times one page of a range scan, what `qindbctl range`
// asks for: 4,096 keys from a random one on, over publishKeep versions of
// publishKeys keys with 128-byte values.
func BenchmarkRange(b *testing.B) {
	db := benchDB(b)
	const page = 4096
	val := make([]byte, 128)
	keys := make([][]byte, publishKeys)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "url-%016d", i)
	}
	for v := uint64(1); v <= publishKeep; v++ {
		for _, k := range keys {
			if _, err := db.Put(k, v, val, false); err != nil {
				b.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		db.Range(keys[rng.Intn(publishKeys-page)], nil, func([]byte, uint64) bool {
			n++
			return n < page
		})
		if n != page {
			b.Fatalf("a page listed %d keys, want %d", n, page)
		}
	}
}

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

// The publish shape: versions of publishKeys entries with 20-byte keys
// and 20 KB ± 4 KB values, 70 % of them deduplicated, publishKeep
// versions kept.
const publishKeys, publishKeep, publishWarm = 8000, 4, 16

// publisher replays the publish shape on one DB as qindbd would hold it
// (1 GB device, 64 MB AOFs, a checkpoint every 256 MB). Finishing version
// v drops version v-publishKeep; that happens as version v+1 begins.
type publisher struct {
	db      *DB
	rng     *rand.Rand
	key     []byte
	val     []byte
	v       uint64        // the version being put
	k       int           // entries of it put so far
	dropped time.Duration // spent in DropVersion
}

// publishing is BenchmarkPublishVersion's store, kept across the
// benchmark's runs so that the warm-up is paid once per process.
var publishing *publisher

func (p *publisher) put(b *testing.B) {
	if p.k == publishKeys {
		if p.v > publishKeep {
			start := time.Now()
			if _, _, err := p.db.DropVersion(p.v - publishKeep); err != nil {
				b.Fatal(err)
			}
			p.dropped += time.Since(start)
		}
		p.v, p.k = p.v+1, 0
	}
	p.key = fmt.Appendf(p.key[:0], "url-%016d", p.k)
	var err error
	if p.v > 1 && p.rng.Intn(100) < 70 {
		_, err = p.db.Put(p.key, p.v, nil, true)
	} else {
		_, err = p.db.Put(p.key, p.v, p.val[:16<<10+p.rng.Intn(8<<10)], false)
	}
	if err != nil {
		b.Fatal(err)
	}
	p.k++
}

// BenchmarkPublishVersion times the publish shape at steady state, one
// op per entry, after publishWarm versions put untimed. Each run starts
// where a version begins, so a run of b.N entries holds ⌈b.N/8000⌉
// retirements: drop_share, the part of the run spent in DropVersion, is
// the steady-state share when b.N is a multiple of 8,000.
func BenchmarkPublishVersion(b *testing.B) {
	p := publishing
	if p == nil {
		opts := DefaultOptions()
		opts.CheckpointEveryBytes = 256 << 20
		db, err := Open(testFS(b, 8192), opts)
		if err != nil {
			b.Fatal(err)
		}
		p = &publisher{db: db, rng: rand.New(rand.NewSource(1)), val: make([]byte, 24<<10), v: 1}
		for i := range p.val {
			p.val[i] = byte(i * 7)
		}
		for i := 0; i < publishWarm*publishKeys; i++ {
			p.put(b)
		}
		publishing = p
	}
	for p.k < publishKeys {
		p.put(b)
	}
	p.dropped = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.put(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(p.dropped)/float64(b.Elapsed()), "drop_share")
}

// BenchmarkCheckpoint times one checkpoint of publishKeep+1 versions of
// publishKeys keys in the publish shape (70 % deduplicated, 1 KB values
// so that the device stays small). Before each checkpoint, untimed, a
// version is published and the oldest live one retired, and retiring it
// runs one GC pass, which takes items out of versions the last
// checkpoint walked.
func BenchmarkCheckpoint(b *testing.B) {
	opts := testOptions()
	opts.AOF.FileSize = 4 << 20
	db, err := Open(testFS(b, 1024), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 1<<10)
	var key []byte
	var v uint64
	publish := func() {
		v++
		for k := 0; k < publishKeys; k++ {
			key = fmt.Appendf(key[:0], "url-%016d", k)
			if _, err := db.Put(key, v, val, v > 1 && rng.Intn(100) < 70); err != nil {
				b.Fatal(err)
			}
		}
		if v > publishKeep+1 {
			if _, _, err := db.DropVersion(v - publishKeep - 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	for v <= publishKeep {
		publish()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		publish()
		b.StartTimer()
		if err := db.checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
