package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"directload/internal/blockfs"
	"directload/internal/ssd"
)

func testFS(t testing.TB, blocks int) blockfs.FS {
	t.Helper()
	_, fs := testDeviceFS(t, blocks)
	return fs
}

// testDeviceFS is testFS plus the device under it, for tests that read
// the device clock or counters.
func testDeviceFS(t testing.TB, blocks int) (*ssd.Device, blockfs.FS) {
	t.Helper()
	cfg := ssd.Config{
		PageSize:      4096,
		PagesPerBlock: 64,
		Blocks:        blocks,
		Latency: ssd.LatencyModel{
			PageRead: 80 * time.Microsecond, PageWrite: 200 * time.Microsecond,
			BlockErase: 1500 * time.Microsecond, Channels: 1,
		},
	}
	d, err := ssd.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ftl, err := ssd.NewFTL(d, (blocks-blocks/8-4)*64)
	if err != nil {
		t.Fatal(err)
	}
	return d, blockfs.NewFTLFS(ftl)
}

// smallOptions shrinks everything so compaction triggers quickly.
func smallOptions() Options {
	return Options{
		MemtableSize:        64 << 10,
		L0CompactionTrigger: 4,
		L1MaxBytes:          256 << 10,
		LevelMultiplier:     10,
		TargetFileSize:      64 << 10,
		MaxLevels:           7,
		Seed:                1,
	}
}

func openLSM(t testing.TB, blocks int) *DB {
	t.Helper()
	db, err := Open(testFS(t, blocks), smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func lput(t testing.TB, db *DB, key string, ver uint64, val string) {
	t.Helper()
	if err := db.Put([]byte(key), ver, []byte(val), false); err != nil {
		t.Fatalf("Put(%s/%d): %v", key, ver, err)
	}
}

func lget(t testing.TB, db *DB, key string, ver uint64) string {
	t.Helper()
	v, err := db.Get([]byte(key), ver)
	if err != nil {
		t.Fatalf("Get(%s/%d): %v", key, ver, err)
	}
	return string(v)
}

func TestLSMPutGetMemtable(t *testing.T) {
	db := openLSM(t, 256)
	defer db.Close()
	lput(t, db, "k", 1, "v1")
	if got := lget(t, db, "k", 1); got != "v1" {
		t.Fatalf("Get = %q", got)
	}
	if _, err := db.Get([]byte("k"), 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing version err = %v", err)
	}
}

func TestLSMFlushAndGetFromTable(t *testing.T) {
	db := openLSM(t, 256)
	defer db.Close()
	for i := 0; i < 50; i++ {
		lput(t, db, fmt.Sprintf("key-%03d", i), 1, fmt.Sprintf("val-%03d", i))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().TablesPerLevel[0] == 0 && db.Stats().TablesPerLevel[1] == 0 {
		t.Fatal("flush produced no tables")
	}
	for i := 0; i < 50; i++ {
		if got := lget(t, db, fmt.Sprintf("key-%03d", i), 1); got != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("key-%03d = %q", i, got)
		}
	}
}

func TestLSMOverwriteAcrossFlush(t *testing.T) {
	db := openLSM(t, 256)
	defer db.Close()
	lput(t, db, "k", 1, "old")
	db.Flush()
	lput(t, db, "k", 1, "new")
	if got := lget(t, db, "k", 1); got != "new" {
		t.Fatalf("Get = %q, want memtable to shadow table", got)
	}
	db.Flush()
	if got := lget(t, db, "k", 1); got != "new" {
		t.Fatalf("Get after second flush = %q (L0 newest must shadow)", got)
	}
}

func TestLSMDelete(t *testing.T) {
	db := openLSM(t, 256)
	defer db.Close()
	lput(t, db, "k", 1, "v")
	if err := db.Del([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("k"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Get deleted err = %v", err)
	}
	db.Flush()
	if _, err := db.Get([]byte("k"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Get deleted after flush err = %v", err)
	}
}

func TestLSMVersionsIndependent(t *testing.T) {
	db := openLSM(t, 256)
	defer db.Close()
	lput(t, db, "k", 1, "v1")
	lput(t, db, "k", 2, "v2")
	lput(t, db, "k", 3, "v3")
	db.Del([]byte("k"), 2)
	if got := lget(t, db, "k", 1); got != "v1" {
		t.Fatalf("v1 = %q", got)
	}
	if got := lget(t, db, "k", 3); got != "v3" {
		t.Fatalf("v3 = %q", got)
	}
	if _, err := db.Get([]byte("k"), 2); !errors.Is(err, ErrDeleted) {
		t.Fatalf("v2 err = %v", err)
	}
}

func TestLSMDedupTraceback(t *testing.T) {
	db := openLSM(t, 256)
	defer db.Close()
	lput(t, db, "k", 1, "base")
	if err := db.Put([]byte("k"), 2, nil, true); err != nil {
		t.Fatal(err)
	}
	if got := lget(t, db, "k", 2); got != "base" {
		t.Fatalf("traceback = %q", got)
	}
	db.Flush()
	if got := lget(t, db, "k", 2); got != "base" {
		t.Fatalf("traceback after flush = %q", got)
	}
	if err := db.Put([]byte("orphan"), 3, nil, true); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("orphan"), 3); !errors.Is(err, ErrNoValue) {
		t.Fatalf("orphan dedup err = %v", err)
	}
}

func TestLSMCompactionTriggered(t *testing.T) {
	db := openLSM(t, 2048)
	defer db.Close()
	val := bytes.Repeat([]byte{1}, 1024)
	for i := 0; i < 2000; i++ {
		lput(t, db, fmt.Sprintf("key-%06d", i%500), uint64(1+i/500), string(val))
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatal("expected compactions under sustained writes")
	}
	if st.CompactionRead == 0 || st.CompactionWrite == 0 {
		t.Fatalf("compaction I/O not accounted: %+v", st)
	}
	// Every key still resolves to its newest version's value.
	for i := 0; i < 500; i++ {
		if got := lget(t, db, fmt.Sprintf("key-%06d", i), 4); got != string(val) {
			t.Fatalf("key-%06d lost after compaction", i)
		}
	}
	// Level invariant: L1+ tables sorted and non-overlapping.
	assertLevelInvariants(t, db)
}

func assertLevelInvariants(t *testing.T, db *DB) {
	t.Helper()
	db.mu.Lock()
	defer db.mu.Unlock()
	for l := 1; l < len(db.levels); l++ {
		tables := db.levels[l]
		for i := 1; i < len(tables); i++ {
			// Strict: every user key lives in exactly one table per
			// level (compaction never splits outputs mid-key).
			if tables[i-1].largest.key >= tables[i].smallest.key {
				t.Fatalf("level %d tables overlap by user key: %v / %v",
					l, tables[i-1].largest, tables[i].smallest)
			}
		}
	}
}

func TestLSMWriteAmplification(t *testing.T) {
	// The headline baseline behaviour: sustained overwrite traffic makes
	// device writes a large multiple of user writes.
	db := openLSM(t, 4096)
	defer db.Close()
	val := bytes.Repeat([]byte{2}, 2048)
	for round := 0; round < 10; round++ {
		for i := 0; i < 400; i++ {
			lput(t, db, fmt.Sprintf("key-%06d", i), uint64(round+1), string(val))
		}
	}
	st := db.Stats()
	sys := db.fs.Device().Stats()
	wa := float64(sys.SysWriteBytes) / float64(st.UserWriteBytes)
	if wa < 3 {
		t.Fatalf("LSM write amplification = %.1f, expected >= 3 for overwrite churn", wa)
	}
}

func TestLSMDropVersion(t *testing.T) {
	db := openLSM(t, 512)
	defer db.Close()
	for i := 0; i < 20; i++ {
		lput(t, db, fmt.Sprintf("k%02d", i), 1, "v1")
		lput(t, db, fmt.Sprintf("k%02d", i), 2, "v2")
	}
	db.Flush()
	n, err := db.DropVersion(1)
	if err != nil || n != 20 {
		t.Fatalf("DropVersion = %d, %v", n, err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Get([]byte(fmt.Sprintf("k%02d", i)), 1); !errors.Is(err, ErrDeleted) {
			t.Fatalf("k%02d/1 err = %v", i, err)
		}
		if got := lget(t, db, fmt.Sprintf("k%02d", i), 2); got != "v2" {
			t.Fatalf("k%02d/2 = %q", i, got)
		}
	}
}

// TestOpenRefusesNonEmptyFS: the baseline has no recovery reader, so
// opening a filesystem that already holds a store must fail rather than
// ignore the data there.
func TestOpenRefusesNonEmptyFS(t *testing.T) {
	fs := testFS(t, 256)
	db, err := Open(fs, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	lput(t, db, "k", 1, "v")
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if db2, err := Open(fs, smallOptions()); err == nil {
		db2.Close()
		t.Fatal("Open on a used filesystem succeeded")
	}
}

func TestLSMRecoveryFreshDB(t *testing.T) {
	fs := testFS(t, 128)
	db, err := Open(fs, smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get([]byte("x"), 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fresh DB Get err = %v", err)
	}
	db.Close()
}

func TestLSMClosedErrors(t *testing.T) {
	db := openLSM(t, 128)
	db.Close()
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close err = %v", err)
	}
	if err := db.Put([]byte("k"), 1, nil, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put err = %v", err)
	}
	if _, err := db.Get([]byte("k"), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get err = %v", err)
	}
}

func TestLSMEmptyKeyRejected(t *testing.T) {
	db := openLSM(t, 128)
	defer db.Close()
	if err := db.Put(nil, 1, []byte("v"), false); err == nil {
		t.Fatal("empty key should be rejected")
	}
}

func TestLSMTombstonesDroppedAtBottom(t *testing.T) {
	// After enough churn, tombstones compacted to the bottommost level
	// disappear rather than accumulating forever.
	db := openLSM(t, 2048)
	defer db.Close()
	val := bytes.Repeat([]byte{4}, 1024)
	for i := 0; i < 500; i++ {
		lput(t, db, fmt.Sprintf("key-%04d", i), 1, string(val))
	}
	for i := 0; i < 500; i++ {
		db.Del([]byte(fmt.Sprintf("key-%04d", i)), 1)
	}
	// Churn other keys to force compactions through the levels.
	for r := 0; r < 6; r++ {
		for i := 0; i < 400; i++ {
			lput(t, db, fmt.Sprintf("other-%04d", i), uint64(r+1), string(val))
		}
	}
	db.Flush()
	for i := 0; i < 500; i += 50 {
		if _, err := db.Get([]byte(fmt.Sprintf("key-%04d", i)), 1); err == nil {
			t.Fatalf("key-%04d resurrected", i)
		}
	}
}

func TestBloomFilter(t *testing.T) {
	b := newBloomBuilder(10)
	for i := 0; i < 1000; i++ {
		b.add(fmt.Sprintf("key-%d", i))
	}
	f := bloomFilter(b.build())
	for i := 0; i < 1000; i++ {
		if !f.mayContain(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if f.mayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / 10000; rate > 0.05 {
		t.Fatalf("false positive rate = %.3f, want < 5%%", rate)
	}
}

func TestBloomEmptyFilter(t *testing.T) {
	f := bloomFilter(nil)
	if !f.mayContain("anything") {
		t.Fatal("empty filter must not exclude")
	}
}

func TestSSTableRoundTrip(t *testing.T) {
	fs := testFS(t, 256)
	tw, err := newTableWriter(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []entry
	for i := 0; i < 500; i++ {
		e := entry{
			ik:    ikey{key: fmt.Sprintf("key-%05d", i), ver: uint64(i % 3)},
			kind:  kindValue,
			value: bytes.Repeat([]byte{byte(i)}, 64),
		}
		want = append(want, e)
		if err := tw.add(e); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := tw.finish()
	if err != nil {
		t.Fatal(err)
	}
	if meta.entries != 500 {
		t.Fatalf("entries = %d", meta.entries)
	}
	tr, err := openTable(fs, meta)
	if err != nil {
		t.Fatal(err)
	}
	// Point lookups.
	for i := 0; i < len(want); i += 7 {
		e := want[i]
		v, kind, found, err := tr.get(e.ik)
		if err != nil || !found || kind != kindValue || !bytes.Equal(v, e.value) {
			t.Fatalf("get(%v) = %v %v %v", e.ik, found, kind, err)
		}
	}
	// Miss.
	if _, _, found, _ := tr.get(ikey{"zzz", 1}); found {
		t.Fatal("found nonexistent key")
	}
	// Full iteration preserves order and content.
	it := tr.iter()
	i := 0
	for it.next() {
		if ikeyCompare(it.cur.ik, want[i].ik) != 0 {
			t.Fatalf("iter order broken at %d", i)
		}
		i++
	}
	if i != 500 {
		t.Fatalf("iterated %d entries", i)
	}
	// Seek.
	if !it.seek(ikey{"key-00250", maxIkeyVer}) {
		t.Fatal("seek failed")
	}
	if it.cur.ik.key != "key-00250" {
		t.Fatalf("seek landed on %v", it.cur.ik)
	}
}

func TestSSTableOutOfOrderAdd(t *testing.T) {
	fs := testFS(t, 128)
	tw, _ := newTableWriter(fs, 1)
	tw.add(entry{ik: ikey{"b", 1}, kind: kindValue})
	if err := tw.add(entry{ik: ikey{"a", 1}, kind: kindValue}); err == nil {
		t.Fatal("out-of-order add should fail")
	}
	tw.abandon()
}

// Property: LSM agrees with a model map over random versioned workloads
// with flush and compaction in the loop.
func TestLSMQuickModel(t *testing.T) {
	type op struct {
		Key byte
		Ver uint8
		Del bool
		Val uint16
	}
	f := func(ops []op) bool {
		db, err := Open(testFS(t, 1024), smallOptions())
		if err != nil {
			return false
		}
		type mkey struct {
			k string
			v uint64
		}
		model := map[mkey]string{}
		dels := map[mkey]bool{}
		for i, o := range ops {
			k := fmt.Sprintf("key-%02d", o.Key%32)
			ver := uint64(o.Ver%8) + 1
			mk := mkey{k, ver}
			if o.Del {
				db.Del([]byte(k), ver)
				delete(model, mk)
				dels[mk] = true
			} else {
				val := fmt.Sprintf("val-%d-%d", o.Val, i)
				if err := db.Put([]byte(k), ver, []byte(val), false); err != nil {
					return false
				}
				model[mk] = val
				delete(dels, mk)
			}
			if i%40 == 39 {
				if err := db.Flush(); err != nil {
					return false
				}
			}
		}
		defer db.Close()
		for mk, want := range model {
			got, err := db.Get([]byte(mk.k), mk.v)
			if err != nil || string(got) != want {
				return false
			}
		}
		for mk := range dels {
			if _, err := db.Get([]byte(mk.k), mk.v); !errors.Is(err, ErrDeleted) && !errors.Is(err, ErrNotFound) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
