package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"directload/internal/aof"
	"directload/internal/metrics"
	"directload/internal/metrics/testutil"
)

// rangeOracle is what Range must list: for each (key, version) entry in
// the memtable, whether it is deleted. With auto-GC off nothing removes
// an entry, so a key's newest entry is its highest version put.
type rangeOracle map[string]map[uint64]bool

// put records a live entry. A put into a retired version first marks
// every other entry of that version deleted, as unretire does.
func (o rangeOracle) put(key string, ver uint64, retired bool) {
	if retired {
		o.drop(ver)
	}
	if o[key] == nil {
		o[key] = map[uint64]bool{}
	}
	o[key][ver] = false
}

func (o rangeOracle) drop(ver uint64) {
	for _, vs := range o {
		if _, ok := vs[ver]; ok {
			vs[ver] = true
		}
	}
}

// page lists up to n of the keys at or past from, and below to when to
// is not empty, whose newest entry is live, with that entry's version.
func (o rangeOracle) page(from, to string, n int) []string {
	var keys []string
	for k := range o {
		if k >= from && (to == "" || k < to) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var out []string
	for _, k := range keys {
		var newest uint64
		for v := range o[k] {
			newest = max(newest, v)
		}
		if !o[k][newest] {
			out = append(out, fmt.Sprintf("%s/%d", k, newest))
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func rangePage(db *DB, from, to string, n int) []string {
	var out []string
	db.Range([]byte(from), []byte(to), func(k []byte, v uint64) bool {
		out = append(out, fmt.Sprintf("%s/%d", k, v))
		return len(out) < n
	})
	return out
}

// TestRangeMatchesOracle: random Puts, Dels, DropVersions and Puts into
// retired versions over six versions, each followed by a Range page of
// 1–50 entries from a random key, some pages bounded above. Every page
// must be the oracle's: the newest entry of each key, listed only when
// it is live, in key order.
func TestRangeMatchesOracle(t *testing.T) {
	opts := testOptions()
	opts.DisableAutoGC = true
	db, err := Open(testFS(t, 256), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(1))
	o := rangeOracle{}
	retired := map[uint64]bool{}
	key := func() string { return fmt.Sprintf("k%03d", rng.Intn(300)) }
	for op := 0; op < 4000; op++ {
		ver := uint64(1 + rng.Intn(6))
		switch r := rng.Intn(100); {
		case r < 70:
			k := key()
			if _, err := db.Put([]byte(k), ver, []byte("v"), false); err != nil {
				t.Fatal(err)
			}
			o.put(k, ver, retired[ver])
			retired[ver] = false
		case r < 95:
			k := key()
			_, err := db.Del([]byte(k), ver)
			if dead, ok := o[k][ver]; ok && !dead && !retired[ver] {
				if err != nil {
					t.Fatalf("op %d: Del(%s/%d): %v", op, k, ver, err)
				}
				o[k][ver] = true
			} else if err == nil {
				t.Fatalf("op %d: Del(%s/%d) of no live entry succeeded", op, k, ver)
			}
		default:
			if _, _, err := db.DropVersion(ver); err != nil {
				t.Fatal(err)
			}
			o.drop(ver)
			retired[ver] = true
		}
		// Keys between and past the stored ones start pages too.
		from, to := fmt.Sprintf("k%03d", rng.Intn(310)), ""
		if rng.Intn(3) == 0 {
			from += "x"
		}
		if rng.Intn(4) == 0 {
			to = fmt.Sprintf("k%03d", rng.Intn(310))
		}
		n := 1 + rng.Intn(50)
		if got, want := rangePage(db, from, to, n), o.page(from, to, n); !slices.Equal(got, want) {
			t.Fatalf("op %d: Range(%q, %q) page of %d:\n got %v\nwant %v", op, from, to, n, got, want)
		}
	}
}

// TestRangeConcurrentWithPut: Range pages through a version while another
// goroutine Puts new keys into it. Each pass must come out strictly
// ascending — no key twice, none out of order — and hold at least the
// keys put before it began. Run it under -race.
func TestRangeConcurrentWithPut(t *testing.T) {
	db := openTestDB(t, 256)
	defer db.Close()
	const keys = 3000
	var put atomic.Int64
	done := make(chan error, 1)
	go func() {
		// All the keys, in an order that is not theirs.
		for i := 0; i < keys; i++ {
			k := fmt.Sprintf("key-%05d", (i*7919)%keys)
			if _, err := db.Put([]byte(k), 1, []byte("v"), false); err != nil {
				done <- err
				return
			}
			put.Add(1)
		}
		done <- nil
	}()
	for passes, finished := 0, false; !finished; passes++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
		}
		before := int(put.Load())
		var pass []string
		for from := ""; ; {
			page := 0
			db.Range([]byte(from), nil, func(k []byte, v uint64) bool {
				if v != 1 {
					t.Errorf("Range listed %s/%d; only version 1 was put", k, v)
				}
				pass = append(pass, string(k))
				page++
				return page < 50
			})
			if page < 50 {
				break
			}
			from = pass[len(pass)-1] + "\x00"
		}
		for i := 1; i < len(pass); i++ {
			if pass[i-1] >= pass[i] {
				t.Fatalf("pass %d: %q listed after %q", passes, pass[i], pass[i-1])
			}
		}
		if len(pass) < before {
			t.Fatalf("pass %d listed %d keys; %d were put before it began", passes, len(pass), before)
		}
		if finished && len(pass) != keys {
			t.Fatalf("final pass listed %d keys, want %d", len(pass), keys)
		}
	}
}

// TestMemtableBytesMatchesHeap: qindb.memtable.bytes, the engine's own
// count of its memtable (key bytes plus memItemOverhead per item), is
// within 25 % of what 8,000 keys put into one version really take on the
// heap. The device is programmed and erased beforehand, so the flash
// image allocates nothing during the measurement.
func TestMemtableBytesMatchesHeap(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("heap sizes are measured without the race detector")
	}
	const keys = 8000
	opts := testOptions()
	opts.AOF = aof.Config{FileSize: 256 << 10, GCThreshold: 0.25}
	opts.Metrics = metrics.NewRegistry()
	db, err := Open(testFS(t, 64), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	key := func(ver uint64, i int) []byte { return []byte(fmt.Sprintf("url-%02d-%013d", ver, i)) }
	val := make([]byte, 16)
	// Three times the blocks the measured version needs, then erased.
	for i := 0; i < 3*keys; i++ {
		if _, err := db.Put(key(1, i), 1, val, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.DropVersion(1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CollectAll(); err != nil {
		t.Fatal(err)
	}
	gauge := opts.Metrics.Gauge("qindb.memtable.bytes")
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	g0 := gauge.Load()
	for i := 0; i < keys; i++ {
		if _, err := db.Put(key(2, i), 2, val, false); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	heap, counted := int64(m1.HeapAlloc)-int64(m0.HeapAlloc), gauge.Load()-g0
	t.Logf("%d keys: heap +%d B (%.1f B/key), memtable.bytes +%d B (%.1f B/key)",
		keys, heap, float64(heap)/keys, counted, float64(counted)/keys)
	if lo, hi := heap*3/4, heap*5/4; counted < lo || counted > hi {
		t.Fatalf("memtable.bytes counts %d B for %d keys; the heap grew %d B (want within 25 %%)", counted, keys, heap)
	}
}
