package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/ssd"
)

// reopen simulates a crash: the memtable is lost and the DB is rebuilt
// from the same (simulated) flash.
func reopen(t *testing.T, fs blockfs.FS) *DB {
	t.Helper()
	db, err := Open(fs, testOptions())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	return db
}

// engineState is what recovery must hand back: the memtable item for
// item (flags as a checkpoint writes them, and referrer counts), the
// version table, the store's occupancy (its sums: the store exports no
// per-file numbers) and every live value.
type engineState struct {
	items    []string
	versions []uint64
	files    int
	total    int64
	live     int64
	values   map[entry]string
}

// entry names one (key, version).
type entry struct {
	key string
	ver uint64
}

func snapshotState(t *testing.T, db *DB) engineState {
	t.Helper()
	st := db.Stats().Store
	es := engineState{versions: db.Versions(), files: st.Files, total: st.TotalBytes, live: st.LiveBytes, values: map[entry]string{}}
	for _, seg := range db.segs {
		for _, k := range seg.keys() {
			it := seg.items[k]
			flags := it.flags
			if seg.deleted(it) {
				flags |= fDeleted
			}
			es.items = append(es.items, fmt.Sprintf("%s/%d flags=%b base=%d refs=%d ref=%+v", k, seg.ver, flags, it.base, it.refs, it.ref))
			if !seg.deleted(it) {
				es.values[entry{k, seg.ver}] = ""
			}
		}
	}
	for k := range es.values {
		// A dedup entry put with nothing to share reads as a broken chain,
		// before a crash and after it.
		val, _, err := db.Get([]byte(k.key), k.ver)
		es.values[k] = fmt.Sprint(string(val), err)
	}
	return es
}

// crash closes db, reopens the store and checks that recovery rebuilt the
// state db had. occupancy says whether the store's live bytes must match
// too: they do unless tombstones sit in files a checkpoint covers, which
// the running engine counts live and recovery, not replaying those
// files, does not (ROADMAP item 1).
func crash(t *testing.T, db *DB, fs blockfs.FS, occupancy bool) *DB {
	t.Helper()
	want := snapshotState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := reopen(t, fs)
	got := snapshotState(t, db2)
	if fmt.Sprint(got.items) != fmt.Sprint(want.items) {
		for i := range want.items {
			if i >= len(got.items) || got.items[i] != want.items[i] {
				t.Fatalf("recovered memtable differs at item %d of %d/%d:\n got %v\nwant %v", i, len(got.items), len(want.items),
					got.items[min(i, len(got.items)-1)], want.items[i])
			}
		}
		t.Fatalf("recovered memtable has %d items, want %d", len(got.items), len(want.items))
	}
	if fmt.Sprint(got.versions) != fmt.Sprint(want.versions) {
		t.Fatalf("recovered versions %v, want %v", got.versions, want.versions)
	}
	for k, v := range want.values {
		if got.values[k] != v {
			t.Fatalf("recovered value of %s/%d differs", k.key, k.ver)
		}
	}
	if got.files != want.files || got.total != want.total {
		t.Fatalf("recovered store has %d files / %d bytes, want %d / %d", got.files, got.total, want.files, want.total)
	}
	if occupancy && got.live != want.live {
		t.Fatalf("recovered store counts %d live bytes, want %d", got.live, want.live)
	}
	return db2
}

func TestRecoveryBasic(t *testing.T) {
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	mustPut(t, db, "a", 1, "va", false)
	mustPut(t, db, "b", 1, "vb", false)
	mustPut(t, db, "b", 2, "", true)
	db.Del([]byte("a"), 1)
	db2 := crash(t, db, fs, true)
	defer db2.Close()
	if _, _, err := db2.Get([]byte("a"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("deleted key after recovery err = %v", err)
	}
	if got := mustGet(t, db2, "b", 1); got != "vb" {
		t.Fatalf("b/1 = %q", got)
	}
	if got := mustGet(t, db2, "b", 2); got != "vb" {
		t.Fatalf("b/2 traceback after recovery = %q", got)
	}
	if vs := db2.Versions(); len(vs) != 2 {
		t.Fatalf("Versions = %v", vs)
	}
}

func TestRecoveryWithoutClose(t *testing.T) {
	// Crash without sealing the active file: the tail lives in the
	// blockfs write buffer, which simulates the device-visible state.
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	mustPut(t, db, "k", 7, "survives", false)
	// No Close: reopening must fail cleanly or recover the record. Our
	// blockfs keeps the writer's tail readable, so recovery sees it.
	db2 := reopen(t, fs)
	defer db2.Close()
	if got := mustGet(t, db2, "k", 7); got != "survives" {
		t.Fatalf("Get after crash = %q", got)
	}
}

func TestRecoveryVersionDrop(t *testing.T) {
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	for v := uint64(1); v <= 3; v++ {
		for i := 0; i < 5; i++ {
			mustPut(t, db, fmt.Sprintf("k%d", i), v, fmt.Sprintf("v%d", v), false)
		}
	}
	db.DropVersion(1)
	db2 := crash(t, db, fs, true)
	defer db2.Close()
	if vs := db2.Versions(); len(vs) != 2 || vs[0] != 2 || vs[1] != 3 {
		t.Fatalf("Versions after recovery = %v, want [2 3]", vs)
	}
	if _, _, err := db2.Get([]byte("k0"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("dropped version visible after recovery: %v", err)
	}
}

func TestRecoveryAfterGC(t *testing.T) {
	// GC rewrites and erases files; recovery must replay the relocated
	// records (with their folded delete flags) correctly.
	fs := testFS(t, 1024)
	db, _ := Open(fs, testOptions())
	val := bytes.Repeat([]byte{9}, 10<<10)
	// 120 v1 values fill the first sealed AOF almost entirely. v2 shares
	// every fifth of them, so dropping v1 still pushes the file's
	// occupancy under the 25% threshold.
	for k := 0; k < 120; k++ {
		mustPut(t, db, fmt.Sprintf("dup-%03d", k), 1, string(val), false)
	}
	for k := 0; k < 120; k++ {
		if k%5 == 0 {
			mustPut(t, db, fmt.Sprintf("dup-%03d", k), 2, "", true)
		} else {
			mustPut(t, db, fmt.Sprintf("dup-%03d", k), 2, string(val), false)
		}
	}
	for k := 0; k < 120; k++ {
		mustPut(t, db, fmt.Sprintf("filler-%03d", k), 2, string(val), false)
	}
	db.DropVersion(1)
	if _, err := db.CollectAll(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Store.GCRuns == 0 {
		t.Fatal("precondition: GC must have run")
	}
	db2 := crash(t, db, fs, true)
	defer db2.Close()
	// Dropped version stays dropped.
	if _, _, err := db2.Get([]byte("dup-00"), 1); err == nil {
		t.Fatal("v1 should be deleted after recovery")
	}
	// Dedup traceback to relocated (FlagDropped) records still works.
	for k := 0; k < 120; k++ {
		got := mustGet(t, db2, fmt.Sprintf("dup-%03d", k), 2)
		if !bytes.Equal([]byte(got), val) {
			t.Fatalf("dup-%03d/2 wrong after GC+recovery", k)
		}
	}
	for k := 0; k < 120; k++ {
		mustGet(t, db2, fmt.Sprintf("filler-%03d", k), 2)
	}
}

func TestRecoveryOccupancyRebuild(t *testing.T) {
	fs := testFS(t, 1024)
	db, _ := Open(fs, testOptions())
	val := bytes.Repeat([]byte{5}, 10<<10)
	for k := 0; k < 200; k++ {
		mustPut(t, db, fmt.Sprintf("k-%03d", k), 1, string(val), false)
	}
	for k := 0; k < 100; k++ { // delete half
		db.Del([]byte(fmt.Sprintf("k-%03d", k)), 1)
	}
	want := db.Stats().Store
	db2 := crash(t, db, fs, true)
	defer db2.Close()
	got := db2.Stats().Store
	if got.LiveBytes != want.LiveBytes {
		t.Fatalf("LiveBytes after recovery = %d, want %d", got.LiveBytes, want.LiveBytes)
	}
	// GC still works after a rebuild: drop the rest and collect.
	for k := 100; k < 200; k++ {
		db2.Del([]byte(fmt.Sprintf("k-%03d", k)), 1)
	}
	if _, err := db2.CollectAll(); err != nil {
		t.Fatal(err)
	}
	if db2.Stats().Store.GCRuns == 0 {
		t.Fatal("GC did not run after recovery")
	}
}

func TestRecoverySeqFloorMonotone(t *testing.T) {
	// New appends after recovery must sort after all recovered records.
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	mustPut(t, db, "k", 1, "old", false)
	db2 := crash(t, db, fs, true)
	mustPut(t, db2, "k", 1, "new", false) // re-put: later seq must win
	db2.Close()

	db3 := reopen(t, fs)
	defer db3.Close()
	if got := mustGet(t, db3, "k", 1); got != "new" {
		t.Fatalf("Get after double recovery = %q, want new (seq ordering)", got)
	}
}

func TestCheckpointBasic(t *testing.T) {
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	for i := 0; i < 50; i++ {
		mustPut(t, db, fmt.Sprintf("k-%02d", i), 1, fmt.Sprintf("v-%02d", i), false)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations must replay on top of the image.
	mustPut(t, db, "k-00", 2, "newer", false)
	db.Del([]byte("k-01"), 1)
	db2 := crash(t, db, fs, true)
	defer db2.Close()
	if got := mustGet(t, db2, "k-00", 2); got != "newer" {
		t.Fatalf("k-00/2 = %q", got)
	}
	if _, _, err := db2.Get([]byte("k-01"), 1); !errors.Is(err, ErrDeleted) {
		t.Fatalf("k-01 err = %v", err)
	}
	for i := 2; i < 50; i++ {
		if got := mustGet(t, db2, fmt.Sprintf("k-%02d", i), 1); got != fmt.Sprintf("v-%02d", i) {
			t.Fatalf("k-%02d = %q", i, got)
		}
	}
}

func TestCheckpointSupersedesOlder(t *testing.T) {
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	mustPut(t, db, "a", 1, "x", false)
	db.Checkpoint()
	mustPut(t, db, "b", 1, "y", false)
	db.Checkpoint()
	var ckpts int
	for _, n := range fs.List() {
		if _, ok := parseCkptName(n); ok {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("checkpoint files = %d, want 1 (older removed)", ckpts)
	}
	db2 := crash(t, db, fs, true)
	defer db2.Close()
	mustGet(t, db2, "a", 1)
	mustGet(t, db2, "b", 1)
}

func TestCheckpointThenGCThenRecovery(t *testing.T) {
	// The hard case: checkpoint captures refs, then GC erases some of the
	// checkpointed files. Relocated records must be re-pointed by replay
	// and dead ones dropped.
	fs := testFS(t, 1024)
	db, _ := Open(fs, testOptions())
	val := bytes.Repeat([]byte{7}, 10<<10)
	for k := 0; k < 200; k++ {
		mustPut(t, db, fmt.Sprintf("k-%03d", k), 1, string(val), false)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Kill the first half and GC aggressively.
	for k := 0; k < 100; k++ {
		db.Del([]byte(fmt.Sprintf("k-%03d", k)), 1)
	}
	if _, err := db.CollectAll(); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Store.GCRuns == 0 {
		t.Fatal("precondition: GC must have run")
	}
	keysBefore := db.Stats().Keys
	db2 := crash(t, db, fs, true)
	defer db2.Close()
	if got := db2.Stats().Keys; got != keysBefore {
		t.Fatalf("Keys after recovery = %d, want %d", got, keysBefore)
	}
	for k := 0; k < 100; k++ {
		if _, _, err := db2.Get([]byte(fmt.Sprintf("k-%03d", k)), 1); err == nil {
			t.Fatalf("k-%03d should be gone", k)
		}
	}
	for k := 100; k < 200; k++ {
		got := mustGet(t, db2, fmt.Sprintf("k-%03d", k), 1)
		if !bytes.Equal([]byte(got), val) {
			t.Fatalf("k-%03d corrupted", k)
		}
	}
}

func TestCorruptCheckpointFallsBackToScan(t *testing.T) {
	fs := testFS(t, 256)
	db, _ := Open(fs, testOptions())
	mustPut(t, db, "k", 1, "v", false)
	db.Checkpoint()
	db.Close()

	// Corrupt the checkpoint by replacing it with garbage.
	for _, n := range fs.List() {
		if _, ok := parseCkptName(n); ok {
			fs.Remove(n)
			w, _ := fs.Create(n)
			w.Append([]byte("garbage-not-a-checkpoint"))
			w.Close()
		}
	}
	db2 := reopen(t, fs)
	defer db2.Close()
	if got := mustGet(t, db2, "k", 1); got != "v" {
		t.Fatalf("fallback scan failed: %q", got)
	}
}

// TestModelEquivalence runs a random op stream against the engine and
// the oracle, checking Get agreement after every checkpoint, GC drain and
// crash/recovery, and that recovery rebuilds the exact engine state.
func TestModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	fs := testFS(t, 2048)
	db, _ := Open(fs, testOptions())
	sh := oracleShape{keys: 20, versions: 6, valMax: 4000}
	o := oracle{}
	for round := 0; round < 6; round++ {
		o.apply(t, db, rng, 300, sh)
		o.check(t, db, sh)
		if round%2 == 0 {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		db.CollectAll()
		o.check(t, db, sh)
		// Crash and recover.
		db = crash(t, db, fs, false) // tombstones in checkpoint-covered files
		o.check(t, db, sh)
	}
	db.Close()
}

// TestReviveAfterRelocatedDropSurvivesRecovery pins a bug the random
// oracle (now TestOracleRounds) found: GC used to relocate version-drop/tombstone records with
// fresh sequence numbers, so a drop could replay AFTER a later re-put of
// the same key/version and kill the revived entry during recovery.
// Deletion records must keep their original sequence when relocated.
func TestReviveAfterRelocatedDropSurvivesRecovery(t *testing.T) {
	fs := testFS(t, 1024)
	db, _ := Open(fs, testOptions())
	val := bytes.Repeat([]byte{8}, 10<<10)
	// Fill a file with v1 data, drop v1 (the version-drop record lands in
	// a later file), then make the first file a GC candidate.
	for k := 0; k < 120; k++ {
		mustPut(t, db, fmt.Sprintf("k-%03d", k), 1, string(val), false)
	}
	if _, _, err := db.DropVersion(1); err != nil {
		t.Fatal(err)
	}
	// Revive one key at the dropped version BEFORE GC runs on the file
	// holding the version-drop record.
	mustPut(t, db, "k-000", 1, "revived", false)
	// Force GC over everything it can collect: the version-drop record is
	// relocated (it is always preserved).
	if _, err := db.CollectAll(); err != nil {
		t.Fatal(err)
	}
	// Reviving one key revives that key only.
	check := func(when string, db *DB) {
		t.Helper()
		if got := mustGet(t, db, "k-000", 1); got != "revived" {
			t.Fatalf("%s: revived key reads %q", when, got)
		}
		if _, _, err := db.Get([]byte("k-001"), 1); !errors.Is(err, ErrDeleted) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: k-001/1 of the dropped version reads err %v, want deleted", when, err)
		}
		if n := db.KeyCount(1); n != 1 {
			t.Fatalf("%s: KeyCount(1) = %d, want 1", when, n)
		}
	}
	check("pre-crash", db)
	db2 := crash(t, db, fs, true)
	defer db2.Close()
	check("post-crash", db2)
}

// TestRecoveryMemoryGrowsWithKeys recovers 4 versions x 2,000 keys x
// 20 KB (160 MB on flash, no checkpoint) and bounds everything Open
// allocates: the scan buffers, one per file — the flash reads land in
// them — and a key-sized entry per record replayed. At commit 99941ed it
// was two more copies of every value, at 8edad56 a buffer per page read.
func TestRecoveryMemoryGrowsWithKeys(t *testing.T) {
	const versions, keys, valLen = 4, 2000, 20 << 10
	fs := testFS(t, 1024) // 256 MB device
	db, err := Open(fs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("0123456789abcdef"), valLen/16)
	for v := uint64(1); v <= versions; v++ {
		for k := 0; k < keys; k++ {
			copy(val, fmt.Sprintf("%06d@%02d", k, v)) // every value its own
			if _, err := db.Put([]byte(fmt.Sprintf("%020d", k)), v, val, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := snapshotState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	db2, err := Open(fs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	runtime.ReadMemStats(&m1)
	alloc := int64(m1.TotalAlloc - m0.TotalAlloc)
	files := int64(db2.Stats().Store.Files)
	if limit := int64(versions*keys)*1024 + files*(2<<20) + 1<<20; alloc > limit {
		t.Fatalf("Open allocated %d MB; limit %d MB for %d records in %d files",
			alloc>>20, limit>>20, versions*keys, files)
	}
	t.Logf("Open allocated %d KB for %d records in %d files", alloc>>10, versions*keys, files)

	got := snapshotState(t, db2)
	if fmt.Sprint(got.items) != fmt.Sprint(want.items) || fmt.Sprint(got.versions) != fmt.Sprint(want.versions) ||
		got.live != want.live || got.total != want.total || got.files != want.files {
		t.Fatalf("recovered state differs: %d items %v versions %d/%d bytes, want %d items %v versions %d/%d bytes",
			len(got.items), got.versions, got.live, got.total, len(want.items), want.versions, want.live, want.total)
	}
	for k, v := range want.values {
		if got.values[k] != v {
			t.Fatalf("recovered value of %s/%d differs", k.key, k.ver)
		}
	}
}

// TestRefusedPutTearsNoRecord: the device runs out of blocks in the middle
// of a record, space comes back, and writing goes on in the same file.
// The refused record is late, not torn (blockfs keeps what the device would
// not take and programs it first next time), so every file still scans as
// whole records, GC can collect it, and a restart recovers.
func TestRefusedPutTearsNoRecord(t *testing.T) {
	fs := testFS(t, 6) // 1.5 MB
	ballast, err := fs.Create("ballast")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ballast.Append(make([]byte, 3*256<<10)); err != nil {
		t.Fatal(err)
	}
	ballast.Close()
	opts := testOptions() // 1 MB files: the three blocks left end inside the first
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 30000) }
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	n := 0
	for ; err == nil; n++ {
		_, err = db.Put(key(n), 1, val(n), false)
	}
	n-- // the refused one
	if !errors.Is(err, ssd.ErrNoFreeBlocks) || n != 3*256<<10/aof.EncodedLen(8, 30000) {
		t.Fatalf("precondition: Put %d refused in mid-record by a full device; got %v", n, err)
	}
	if _, err := fs.Remove("ballast"); err != nil {
		t.Fatal(err)
	}
	for i := n + 1; i < n+6; i++ {
		if _, err := db.Put(key(i), 1, val(i), false); err != nil {
			t.Fatalf("Put with space again: %v", err)
		}
	}
	check := func(db *DB, when string) {
		t.Helper()
		for _, id := range db.store.Files() {
			if err := db.store.ScanFile(id, func(aof.Record, aof.Ref) error { return nil }); err != nil {
				t.Fatalf("%s: ScanFile(%d): %v", when, id, err)
			}
		}
		for i := 0; i < n+6; i++ {
			if i == n {
				continue // refused: it may or may not have been written
			}
			if got, _, err := db.Get(key(i), 1); err != nil || !bytes.Equal(got, val(i)) {
				t.Fatalf("%s: Get(%s) = %d bytes, %v", when, key(i), len(got), err)
			}
		}
	}
	check(db, "before the restart")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(fs, opts)
	if err != nil {
		t.Fatalf("Open after a refused Put: %v", err)
	}
	defer db.Close()
	check(db, "after the restart")
}
