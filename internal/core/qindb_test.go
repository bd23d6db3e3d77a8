package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/blockfs/blockfstest"
	"directload/internal/ssd"
)

func testFS(t testing.TB, blocks int) blockfs.FS {
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
	return blockfs.NewNativeFS(d)
}

func testOptions() Options {
	return Options{AOF: aof.Config{FileSize: 1 << 20, GCThreshold: 0.25}}
}

func openTestDB(t testing.TB, blocks int) *DB {
	t.Helper()
	db, err := Open(testFS(t, blocks), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func mustPut(t testing.TB, db *DB, key string, ver uint64, val string, dedup bool) {
	t.Helper()
	if _, err := db.Put([]byte(key), ver, []byte(val), dedup); err != nil {
		t.Fatalf("Put(%s/%d): %v", key, ver, err)
	}
}

func mustGet(t testing.TB, db *DB, key string, ver uint64) string {
	t.Helper()
	v, _, err := db.Get([]byte(key), ver)
	if err != nil {
		t.Fatalf("Get(%s/%d): %v", key, ver, err)
	}
	return string(v)
}

func TestPutGetBasic(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "url/a", 1, "terms-a-v1", false)
	if got := mustGet(t, db, "url/a", 1); got != "terms-a-v1" {
		t.Fatalf("Get = %q", got)
	}
	if _, _, err := db.Get([]byte("url/a"), 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing version err = %v", err)
	}
	if _, _, err := db.Get([]byte("nope"), 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
}

func TestPutValidation(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	if _, err := db.Put(nil, 1, []byte("v"), false); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("empty key err = %v", err)
	}
	if _, err := db.Put([]byte("k"), 1, make([]byte, aof.MaxValueLen+1), false); !errors.Is(err, ErrValueTooBig) {
		t.Fatalf("oversize err = %v", err)
	}
}

// TestKeyLengthLimit: the record format's keyLen is a uint16. A key one
// byte past it must be refused before anything is appended — it used to
// be written with keyLen 0, failing its checksum on every later read, GC
// pass and recovery — and the longest legal key must survive a restart.
func TestKeyLengthLimit(t *testing.T) {
	fs := testFS(t, 64)
	db, err := Open(fs, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	longest := bytes.Repeat([]byte{'k'}, aof.MaxKeyLen)
	tooLong := bytes.Repeat([]byte{'k'}, aof.MaxKeyLen+1)
	if _, err := db.Put(longest, 1, []byte("v"), false); err != nil {
		t.Fatalf("Put of a %d-byte key: %v", len(longest), err)
	}
	if _, err := db.Put(tooLong, 1, []byte("v"), false); !errors.Is(err, ErrKeyTooBig) {
		t.Fatalf("Put of a %d-byte key: err = %v, want ErrKeyTooBig", len(tooLong), err)
	}
	if _, err := db.Del(tooLong, 1); !errors.Is(err, ErrKeyTooBig) {
		t.Fatalf("Del of a %d-byte key: err = %v, want ErrKeyTooBig", len(tooLong), err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(fs, testOptions())
	if err != nil {
		t.Fatalf("reopen after the refused key: %v", err)
	}
	defer db.Close()
	if got, _, err := db.Get(longest, 1); err != nil || string(got) != "v" {
		t.Fatalf("Get of the longest key after reopen = %q, %v", got, err)
	}
}

func TestRePutSameVersion(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "k", 1, "first", false)
	mustPut(t, db, "k", 1, "second", false)
	if got := mustGet(t, db, "k", 1); got != "second" {
		t.Fatalf("Get after re-put = %q", got)
	}
	// The replaced record became dead in the GC table.
	st := db.Stats().Store
	if st.LiveBytes >= st.TotalBytes {
		t.Fatalf("re-put should leave dead bytes: live=%d total=%d", st.LiveBytes, st.TotalBytes)
	}
}

func TestDedupTraceback(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	// v1 has the real value; v2, v3 were deduplicated by Bifrost.
	mustPut(t, db, "url/x", 1, "payload-v1", false)
	mustPut(t, db, "url/x", 2, "", true)
	mustPut(t, db, "url/x", 3, "", true)
	for _, ver := range []uint64{1, 2, 3} {
		if got := mustGet(t, db, "url/x", ver); got != "payload-v1" {
			t.Fatalf("Get(v%d) = %q, want traceback to payload-v1", ver, got)
		}
	}
	if tb := db.Stats().Tracebacks; tb != 2 {
		t.Fatalf("Tracebacks = %d, want 2", tb)
	}
	// A fresh value at v4 ends the chain.
	mustPut(t, db, "url/x", 4, "payload-v4", false)
	mustPut(t, db, "url/x", 5, "", true)
	if got := mustGet(t, db, "url/x", 5); got != "payload-v4" {
		t.Fatalf("Get(v5) = %q, want payload-v4", got)
	}
	if got := mustGet(t, db, "url/x", 2); got != "payload-v1" {
		t.Fatalf("Get(v2) = %q, want payload-v1 still", got)
	}
}

func TestDedupBrokenChain(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "orphan", 5, "", true)
	if _, _, err := db.Get([]byte("orphan"), 5); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("want ErrBrokenChain, got %v", err)
	}
	// Version 0 dedup can never have a prior version.
	mustPut(t, db, "zero", 0, "", true)
	if _, _, err := db.Get([]byte("zero"), 0); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("v0 dedup want ErrBrokenChain, got %v", err)
	}
}

func TestTracebackSkipsDeletedDedup(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "k", 1, "base", false)
	mustPut(t, db, "k", 2, "", true)
	mustPut(t, db, "k", 3, "", true)
	if _, err := db.Del([]byte("k"), 2); err != nil {
		t.Fatal(err)
	}
	// v3's traceback passes over the deleted dedup v2 and lands on v1.
	if got := mustGet(t, db, "k", 3); got != "base" {
		t.Fatalf("Get(v3) = %q", got)
	}
}

func TestTracebackUsesDeletedValue(t *testing.T) {
	// Paper: a deleted value that newer dedup versions refer to must stay
	// readable through them.
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "k", 1, "base", false)
	mustPut(t, db, "k", 2, "", true)
	if _, err := db.Del([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get([]byte("k"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("direct Get of deleted version err = %v", err)
	}
	if got := mustGet(t, db, "k", 2); got != "base" {
		t.Fatalf("Get(v2) via deleted base = %q", got)
	}
}

func TestDelSemantics(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "k", 1, "v", false)
	if _, err := db.Del([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Get([]byte("k"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("Get deleted err = %v", err)
	}
	if _, err := db.Del([]byte("k"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("double Del err = %v", err)
	}
	if _, err := db.Del([]byte("missing"), 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Del missing err = %v", err)
	}
	if _, err := db.Del(nil, 1); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("Del empty key err = %v", err)
	}
	// Revive by re-putting.
	mustPut(t, db, "k", 1, "revived", false)
	if got := mustGet(t, db, "k", 1); got != "revived" {
		t.Fatalf("revived Get = %q", got)
	}
}

func TestGetLatest(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "k", 1, "v1", false)
	mustPut(t, db, "k", 3, "v3", false)
	mustPut(t, db, "k", 2, "v2", false)
	val, ver, _, err := db.GetLatest([]byte("k"))
	if err != nil || ver != 3 || string(val) != "v3" {
		t.Fatalf("GetLatest = %q, v%d, %v", val, ver, err)
	}
	db.Del([]byte("k"), 3)
	val, ver, _, err = db.GetLatest([]byte("k"))
	if err != nil || ver != 2 || string(val) != "v2" {
		t.Fatalf("GetLatest after del = %q, v%d, %v", val, ver, err)
	}
	if _, _, _, err := db.GetLatest([]byte("none")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetLatest missing err = %v", err)
	}
}

func TestDropVersion(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	for i := 0; i < 10; i++ {
		mustPut(t, db, fmt.Sprintf("k%d", i), 1, "v1", false)
		mustPut(t, db, fmt.Sprintf("k%d", i), 2, "v2", false)
	}
	n, _, err := db.DropVersion(1)
	if err != nil || n != 10 {
		t.Fatalf("DropVersion = %d, %v; want 10", n, err)
	}
	for i := 0; i < 10; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if _, _, err := db.Get(key, 1); !errors.Is(err, ErrDeleted) {
			t.Fatalf("k%d/1 err = %v", i, err)
		}
		if got := mustGet(t, db, fmt.Sprintf("k%d", i), 2); got != "v2" {
			t.Fatalf("k%d/2 = %q", i, got)
		}
	}
	if vs := db.Versions(); len(vs) != 1 || vs[0] != 2 {
		t.Fatalf("Versions = %v, want [2]", vs)
	}
}

func TestRetainVersions(t *testing.T) {
	db := openTestDB(t, 128)
	defer db.Close()
	for v := uint64(1); v <= 6; v++ {
		for i := 0; i < 5; i++ {
			mustPut(t, db, fmt.Sprintf("k%d", i), v, fmt.Sprintf("v%d", v), false)
		}
	}
	dropped, err := db.RetainVersions(4)
	if err != nil || dropped != 2 {
		t.Fatalf("RetainVersions = %d, %v; want 2", dropped, err)
	}
	vs := db.Versions()
	if len(vs) != 4 || vs[0] != 3 || vs[3] != 6 {
		t.Fatalf("Versions = %v, want [3 4 5 6]", vs)
	}
}

func TestVersionsSorted(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	for _, v := range []uint64{5, 1, 9, 3} {
		mustPut(t, db, "k", v, "v", false)
	}
	vs := db.Versions()
	want := []uint64{1, 3, 5, 9}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("Versions = %v, want %v", vs, want)
		}
	}
}

func TestRange(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "a", 1, "x", false)
	mustPut(t, db, "b", 1, "x", false)
	mustPut(t, db, "b", 2, "x", false) // newer version: b emitted once with v2
	mustPut(t, db, "c", 1, "x", false)
	mustPut(t, db, "d", 1, "x", false)
	db.Del([]byte("c"), 1)

	type hit struct {
		key string
		ver uint64
	}
	var got []hit
	db.Range([]byte("a"), []byte("d"), func(k []byte, v uint64) bool {
		got = append(got, hit{string(k), v})
		return true
	})
	want := []hit{{"a", 1}, {"b", 2}}
	if len(got) != len(want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range = %v, want %v", got, want)
		}
	}
	// Unbounded range includes d.
	got = nil
	db.Range(nil, nil, func(k []byte, v uint64) bool {
		got = append(got, hit{string(k), v})
		return true
	})
	if len(got) != 3 || got[2].key != "d" {
		t.Fatalf("unbounded Range = %v", got)
	}
	// Early stop.
	got = nil
	db.Range(nil, nil, func(k []byte, v uint64) bool {
		got = append(got, hit{string(k), v})
		return false
	})
	if len(got) != 1 {
		t.Fatalf("early-stop Range = %v", got)
	}
	// A key's newest entry decides, deleted or retired: e/2 is deleted and
	// f/3 retired, so neither key is listed though e/1 and f/1 are live.
	mustPut(t, db, "e", 1, "x", false)
	mustPut(t, db, "e", 2, "x", false)
	db.Del([]byte("e"), 2)
	mustPut(t, db, "f", 1, "x", false)
	mustPut(t, db, "f", 3, "x", false)
	if _, _, err := db.DropVersion(3); err != nil {
		t.Fatal(err)
	}
	got = nil
	db.Range([]byte("d"), nil, func(k []byte, v uint64) bool {
		got = append(got, hit{string(k), v})
		return true
	})
	if len(got) != 1 || got[0] != (hit{"d", 1}) {
		t.Fatalf("Range from d = %v, want [{d 1}]", got)
	}
}

func TestHas(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "k", 1, "v", false)
	if !db.Has([]byte("k"), 1) || db.Has([]byte("k"), 2) {
		t.Fatal("Has incorrect")
	}
	db.Del([]byte("k"), 1)
	if db.Has([]byte("k"), 1) {
		t.Fatal("Has should be false after Del")
	}
}

func TestClosedErrors(t *testing.T) {
	db := openTestDB(t, 64)
	db.Close()
	if err := db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close err = %v", err)
	}
	if _, err := db.Put([]byte("k"), 1, nil, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put err = %v", err)
	}
	if _, _, err := db.Get([]byte("k"), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get err = %v", err)
	}
	if _, err := db.Del([]byte("k"), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Del err = %v", err)
	}
	if _, _, err := db.DropVersion(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("DropVersion err = %v", err)
	}
}

// TestCloseReturnsFlashError: a failed flush of the tail page while
// sealing the active file reaches Close's caller.
func TestCloseReturnsFlashError(t *testing.T) {
	boom := errors.New("injected close failure")
	db, err := Open(&blockfstest.FS{FS: testFS(t, 64), Close: func(string) error { return boom }}, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put([]byte("k"), 1, []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the injected failure", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "abc", 1, "1234567", false) // 3 + 7 = 10 user bytes
	mustGet(t, db, "abc", 1)
	st := db.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.UserWriteBytes != 10 || st.UserReadBytes != 7 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.Keys != 1 {
		t.Fatalf("Keys = %d", st.Keys)
	}
}

// --- GC behaviour -----------------------------------------------------

// fillVersions writes nKeys keys across nVers versions with val-sized
// values, dropping old versions to keep at most `retain`.
func fillVersions(t testing.TB, db *DB, nKeys, nVers, valSize, retain int) {
	t.Helper()
	val := bytes.Repeat([]byte{0xC4}, valSize)
	for v := 1; v <= nVers; v++ {
		for k := 0; k < nKeys; k++ {
			mustPut(t, db, fmt.Sprintf("key-%04d", k), uint64(v), string(val), false)
		}
		if _, err := db.RetainVersions(retain); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGCReclaimsDroppedVersions(t *testing.T) {
	db := openTestDB(t, 1024) // 256 MB device
	defer db.Close()
	fillVersions(t, db, 50, 8, 20<<10, 2)
	if err := db.collectAll(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats().Store
	if st.GCRuns == 0 {
		t.Fatal("expected GC to run")
	}
	// After draining, disk usage should be near live bytes (within one
	// active file of slack).
	if st.DiskBytes > st.LiveBytes+2<<20 {
		t.Fatalf("disk %d MB vs live %d MB: GC not reclaiming", st.DiskBytes>>20, st.LiveBytes>>20)
	}
	// All current-version data still readable.
	for k := 0; k < 50; k++ {
		mustGet(t, db, fmt.Sprintf("key-%04d", k), 8)
	}
}

func TestGCPreservesDedupReferencedValues(t *testing.T) {
	db := openTestDB(t, 512)
	defer db.Close()
	val := bytes.Repeat([]byte{1}, 10<<10)
	// v1 real values; v2 dedup; fill with other data to seal files; then
	// delete v1 and force GC.
	for k := 0; k < 30; k++ {
		mustPut(t, db, fmt.Sprintf("dup-%02d", k), 1, string(val), false)
	}
	for k := 0; k < 30; k++ {
		mustPut(t, db, fmt.Sprintf("dup-%02d", k), 2, "", true)
	}
	// Filler traffic to roll files.
	for k := 0; k < 200; k++ {
		mustPut(t, db, fmt.Sprintf("filler-%03d", k), 1, string(val), false)
	}
	if _, _, err := db.DropVersion(1); err != nil {
		t.Fatal(err)
	}
	if err := db.collectAll(); err != nil {
		t.Fatal(err)
	}
	// v2 entries must still traceback to the v1 values even though v1 was
	// dropped and its files were garbage collected.
	for k := 0; k < 30; k++ {
		got := mustGet(t, db, fmt.Sprintf("dup-%02d", k), 2)
		if !bytes.Equal([]byte(got), val) {
			t.Fatalf("dup-%02d/2 traceback corrupted after GC", k)
		}
	}
}

func TestGCRemovesUnreferencedDeletedItems(t *testing.T) {
	db := openTestDB(t, 512)
	defer db.Close()
	val := bytes.Repeat([]byte{2}, 10<<10)
	// 300 * 10 KB ≈ 3 MB across ~3 AOFs, so at least two become sealed
	// (the active file is never a GC candidate).
	for k := 0; k < 300; k++ {
		mustPut(t, db, fmt.Sprintf("k-%03d", k), 1, string(val), false)
	}
	before := db.Stats().Keys
	if _, _, err := db.DropVersion(1); err != nil {
		t.Fatal(err)
	}
	if err := db.collectAll(); err != nil {
		t.Fatal(err)
	}
	after := db.Stats().Keys
	if after >= before {
		t.Fatalf("memtable items not removed by GC: %d -> %d", before, after)
	}
}

func TestGCSoftwareWriteAmplificationBounded(t *testing.T) {
	// With a 25% threshold, GC re-appends at most 25% of each collected
	// file: sys writes should stay well under 2x user writes for a
	// version-churn workload.
	db := openTestDB(t, 2048)
	defer db.Close()
	fillVersions(t, db, 40, 10, 20<<10, 2)
	st := db.Stats()
	wa := float64(st.Store.TotalBytes) / float64(st.UserWriteBytes)
	if wa > 2.0 {
		t.Fatalf("software WA = %.2f, want <= 2.0 (paper reports ~2.1 incl. hardware)", wa)
	}
}

// TestCollectOnceNoCandidates: the GC pass a Del runs on its way out is a
// no-op when no file is a candidate (the one file is the active one).
func TestCollectOnceNoCandidates(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "k", 1, "v", false)
	if _, err := db.Del([]byte("k"), 1); err != nil {
		t.Fatal(err)
	}
	if runs := db.Stats().Store.GCRuns; runs != 0 {
		t.Fatalf("GCRuns = %d, want 0", runs)
	}
}

func TestAutoGCDisabled(t *testing.T) {
	opts := testOptions()
	db, err := openManualGC(testFS(t, 1024), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte{3}, 20<<10)
	for k := 0; k < 300; k++ {
		mustPut(t, db, fmt.Sprintf("k-%03d", k), 1, string(val), false)
	}
	db.DropVersion(1)
	if db.Stats().Store.GCRuns != 0 {
		t.Fatal("DropVersion ran a GC pass with manualGC set")
	}
	if err := db.collectAll(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Store.GCRuns == 0 {
		t.Fatal("collectAll did nothing")
	}
}

// --- Concurrency -------------------------------------------------------

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := openTestDB(t, 1024)
	defer db.Close()
	const keys = 50
	for k := 0; k < keys; k++ {
		mustPut(t, db, fmt.Sprintf("k-%02d", k), 1, fmt.Sprintf("val-%02d", k), false)
	}
	done := make(chan error, 8)
	for w := 0; w < 3; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k-%02d", i%keys)
				if _, err := db.Put([]byte(k), uint64(2+w), []byte("new"), false); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for r := 0; r < 5; r++ {
		go func() {
			rng := rand.New(rand.NewSource(int64(42)))
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k-%02d", rng.Intn(keys))
				if _, _, err := db.Get([]byte(k), 1); err != nil {
					done <- fmt.Errorf("get %s: %w", k, err)
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestGetTakesNoExclusiveLock(t *testing.T) {
	// Counting a read must not queue it behind other readers: while one
	// goroutine holds the engine lock shared (a long Range, say), Get,
	// GetLatest and Has still return, and the read is still counted.
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "k", 1, "value", false)
	mustPut(t, db, "k", 2, "", true)

	db.mu.RLock()
	done := make(chan error, 1)
	go func() {
		_, _, err := db.Get([]byte("k"), 2)
		if err == nil {
			_, _, _, err = db.GetLatest([]byte("k"))
		}
		if err == nil && !db.Has([]byte("k"), 1) {
			err = errors.New("Has(k, 1) = false")
		}
		done <- err
	}()
	select {
	case err := <-done:
		db.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		db.mu.RUnlock()
		t.Fatal("Get parked behind a shared holder of db.mu")
	}
	if st := db.Stats(); st.Gets != 2 || st.Tracebacks != 2 || st.UserReadBytes != 10 {
		t.Fatalf("Stats = %+v, want 2 gets, 2 tracebacks, 10 bytes read", st)
	}
}
