package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"directload/internal/ssd"
)

// TestManifestCorruptionFallsBackToEmpty: a destroyed manifest means the
// engine cannot trust any on-disk state; it must come up empty and
// usable rather than serving garbage.
func TestManifestCorruptionFallsBackToEmpty(t *testing.T) {
	fs := testFS(t, 512)
	db, err := Open(fs, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		lput(t, db, fmt.Sprintf("k-%03d", i), 1, "v")
	}
	db.Flush()
	db.Close()

	// Corrupt every manifest byte-wise.
	for _, n := range fs.List() {
		var num uint64
		if _, err := fmt.Sscanf(n, "manifest-%010d", &num); err == nil {
			fs.Remove(n)
			w, _ := fs.Create(n)
			w.Append([]byte("definitely not a manifest"))
			w.Close()
		}
	}
	db2, err := Open(fs, smallOptions())
	if err != nil {
		t.Fatalf("open after manifest corruption: %v", err)
	}
	defer db2.Close()
	if _, err := db2.Get([]byte("k-000"), 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt-manifest DB should be empty, Get err = %v", err)
	}
	lput(t, db2, "fresh", 1, "usable")
	if got := lget(t, db2, "fresh", 1); got != "usable" {
		t.Fatal("DB unusable after manifest loss")
	}
}

// TestWALTornTail: a WAL whose last record is truncated replays the
// prefix and drops the torn record — standard crash semantics.
func TestWALTornTail(t *testing.T) {
	fs := testFS(t, 512)
	db, err := Open(fs, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	lput(t, db, "a", 1, "intact")
	lput(t, db, "b", 1, "also-intact")
	// Simulate the crash by NOT closing; instead corrupt the WAL tail by
	// appending garbage bytes that decode as a half-record.
	db.mu.Lock()
	walName := walName(db.walNum)
	db.wal.Append([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF, 0x7F, 0x01}) // bogus frame
	db.mu.Unlock()
	_ = walName

	db2, err := Open(fs, smallOptions())
	if err != nil {
		t.Fatalf("open with torn WAL: %v", err)
	}
	defer db2.Close()
	if got := lget(t, db2, "a", 1); got != "intact" {
		t.Fatalf("a = %q", got)
	}
	if got := lget(t, db2, "b", 1); got != "also-intact" {
		t.Fatalf("b = %q", got)
	}
}

// TestBloomFiltersSaveIO: point lookups for absent keys should rarely
// touch data blocks thanks to the per-table bloom filters.
func TestBloomFiltersSaveIO(t *testing.T) {
	db := openLSM(t, 1024)
	defer db.Close()
	val := bytes.Repeat([]byte{1}, 512)
	for i := 0; i < 2000; i++ {
		lput(t, db, fmt.Sprintf("present-%05d", i), 1, string(val))
	}
	db.Flush()
	// Warm the table cache (index/filter loads).
	db.Get([]byte("present-00000"), 1)
	before := db.fs.Device().Stats().SysReadBytes
	misses := 0
	for i := 0; i < 500; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("absent-%05d", i)), 1); err == nil {
			t.Fatal("absent key found")
		}
		misses++
	}
	readPerMiss := float64(db.fs.Device().Stats().SysReadBytes-before) / float64(misses)
	// Without filters every miss would read >= one 4KB block per level
	// touched; with ~1% false positives it should average well under one
	// page per miss.
	if readPerMiss > 2048 {
		t.Fatalf("absent-key lookups read %.0f bytes each; bloom filters ineffective", readPerMiss)
	}
}

// TestGetAfterReopenFindsAllLevels: data spread across several levels by
// compaction survives restart (manifest + table files).
func TestGetAfterReopenFindsAllLevels(t *testing.T) {
	fs := testFS(t, 2048)
	db, err := Open(fs, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{2}, 1024)
	for round := 0; round < 8; round++ {
		for i := 0; i < 300; i++ {
			lput(t, db, fmt.Sprintf("key-%04d", i), uint64(round+1), string(val))
		}
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("precondition: compactions must have run")
	}
	db.Close()

	db2, err := Open(fs, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < 300; i += 17 {
		for _, v := range []uint64{5, 8} {
			if got := lget(t, db2, fmt.Sprintf("key-%04d", i), v); got != string(val) {
				t.Fatalf("key-%04d/%d lost across restart", i, v)
			}
		}
	}
	levels := db2.Stats().TablesPerLevel
	deep := 0
	for l := 1; l < len(levels); l++ {
		deep += levels[l]
	}
	if deep == 0 {
		t.Fatal("expected tables below L0 after restart")
	}
}

// flashRead reads (key, version) and returns the bytes the read took
// from flash.
func flashRead(t *testing.T, db *DB, dev *ssd.Device, key string, version uint64) int64 {
	t.Helper()
	before := dev.Stats().SysReadBytes
	if _, err := db.Get([]byte(key), version); err != nil {
		t.Fatal(err)
	}
	return dev.Stats().SysReadBytes - before
}

// TestBlockCache: repeated point reads of the same hot keys hit the
// cache and stop reading flash; compaction churn evicts dead tables'
// blocks.
func TestBlockCache(t *testing.T) {
	opts := smallOptions()
	opts.BlockCacheBytes = 1 << 20
	dev, fs := testDeviceFS(t, 1024)
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte{5}, 1024)
	for i := 0; i < 500; i++ {
		lput(t, db, fmt.Sprintf("key-%04d", i), 1, string(val))
	}
	db.Flush()
	// First read warms the cache; the second must be free.
	if n := flashRead(t, db, dev, "key-0123", 1); n == 0 {
		t.Fatal("first read read no flash")
	}
	if n := flashRead(t, db, dev, "key-0123", 1); n != 0 {
		t.Fatalf("cached read read %d flash bytes, want 0", n)
	}
	st := db.Stats()
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Fatalf("cache counters: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

func TestBlockCacheDisabled(t *testing.T) {
	opts := smallOptions()
	opts.BlockCacheBytes = 0
	dev, fs := testDeviceFS(t, 512)
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	lput(t, db, "k", 1, "v")
	db.Flush()
	db.Get([]byte("k"), 1)
	if flashRead(t, db, dev, "k", 1) == 0 {
		t.Fatal("reads should read flash with the cache disabled")
	}
	if h, m := db.Stats().CacheHits, db.Stats().CacheMisses; h != 0 || m != 0 {
		t.Fatalf("disabled cache counted: %d/%d", h, m)
	}
}

func TestBlockCacheEviction(t *testing.T) {
	c := newBlockCache(10_000)
	blob := bytes.Repeat([]byte{1}, 3000)
	for i := uint64(0); i < 6; i++ {
		c.put(cacheKey{table: i, off: 0}, blob)
	}
	if c.size > 10_000 {
		t.Fatalf("cache over capacity: %d", c.size)
	}
	// Oldest entries evicted.
	if _, ok := c.get(cacheKey{table: 0, off: 0}); ok {
		t.Fatal("oldest entry should be evicted")
	}
	if _, ok := c.get(cacheKey{table: 5, off: 0}); !ok {
		t.Fatal("newest entry should remain")
	}
	// dropTable removes a table's blocks.
	c.dropTable(5)
	if _, ok := c.get(cacheKey{table: 5, off: 0}); ok {
		t.Fatal("dropTable did not evict")
	}
	// Oversized blobs are not cached.
	c.put(cacheKey{table: 9, off: 0}, make([]byte, 20_000))
	if _, ok := c.get(cacheKey{table: 9, off: 0}); ok {
		t.Fatal("oversized blob must not be cached")
	}
	// A nil cache is inert.
	var nc *blockCache
	nc.put(cacheKey{}, blob)
	if _, ok := nc.get(cacheKey{}); ok {
		t.Fatal("nil cache returned a hit")
	}
}
