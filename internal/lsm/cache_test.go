package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"directload/internal/ssd"
)

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
	if db.cache != nil {
		t.Fatal("a zero-byte cache was built")
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
