package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"directload/internal/aof"
)

// stream publishes seeded versions of nKeys keys on the calling
// goroutine and keeps the oracle of what every (key, version) must read
// as. An entry written in full holds streamValue(k, v); a deduplicated
// one holds the value of the version the engine binds it to, which the
// oracle works out by the engine's rule (the nearest older entry of the
// key that is not deleted, through that entry's own base if it is a
// dedup one). Version 0 does not exist, so base 0 means "deleted".
//
// The oracle rows of a version are written before publish returns and
// never change afterwards, so a reader that learns the version number
// through a synchronising store may read them freely.
type stream struct {
	rng      *rand.Rand
	nKeys    int
	dedupPct int
	base     [][]uint64      // version -> key -> version holding the value read, 0 if deleted
	gone     map[uint64]bool // retired versions; the publishing goroutine's own
}

// streamMaxVersions sizes the oracle up front, so that publishing one
// version never moves the rows readers hold of another.
const streamMaxVersions = 64

func newStream(seed int64, nKeys, dedupPct int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), nKeys: nKeys, dedupPct: dedupPct,
		base: make([][]uint64, streamMaxVersions), gone: map[uint64]bool{}}
}

func streamKey(k int) []byte { return []byte(fmt.Sprintf("url-%05d", k)) }

// streamValue is the payload (k, v) is written with: 2-8 KB that name
// their key and version at every offset.
func streamValue(k int, v uint64) []byte {
	val := make([]byte, 2048+(k*131+int(v)*977)%6144)
	for i := range val {
		val[i] = byte(k*31 + int(v)*17 + i)
	}
	return val
}

// resolve mirrors DB.resolveBaseLocked for a dedup Put of (k, v).
func (s *stream) resolve(k int, v uint64) uint64 {
	for w := v - 1; w >= 1; w-- {
		if row := s.base[w]; row != nil && !s.gone[w] && row[k] != 0 {
			return row[k]
		}
	}
	return 0
}

// publish writes version v — each key in full or, dedupPct times in a
// hundred when an older value is there to share, deduplicated — and then
// deletes one key in sixteen of it.
func (s *stream) publish(t testing.TB, db *DB, v uint64) {
	t.Helper()
	row := make([]uint64, s.nKeys)
	s.base[v] = row
	for k := 0; k < s.nKeys; k++ {
		if b := s.resolve(k, v); b != 0 && s.rng.Intn(100) < s.dedupPct {
			if _, err := db.Put(streamKey(k), v, nil, true); err != nil {
				t.Fatalf("dedup Put(%d/%d): %v", k, v, err)
			}
			row[k] = b
			continue
		}
		if _, err := db.Put(streamKey(k), v, streamValue(k, v), false); err != nil {
			t.Fatalf("Put(%d/%d): %v", k, v, err)
		}
		row[k] = v
	}
	for i := 0; i < s.nKeys/16; i++ {
		k := s.rng.Intn(s.nKeys)
		if row[k] == 0 {
			continue
		}
		if _, err := db.Del(streamKey(k), v); err != nil {
			t.Fatalf("Del(%d/%d): %v", k, v, err)
		}
		row[k] = 0
	}
}

// retire drops version v.
func (s *stream) retire(t testing.TB, db *DB, v uint64) {
	t.Helper()
	s.gone[v] = true
	if _, _, err := db.DropVersion(v); err != nil {
		t.Fatalf("DropVersion(%d): %v", v, err)
	}
}

// check reads (k, v) and compares every byte with the oracle.
func (s *stream) check(db *DB, k int, v uint64) error {
	val, _, err := db.Get(streamKey(k), v)
	return s.judge(k, v, val, err)
}

// judge compares the outcome of a Get of (k, v), a version that was not
// retired when the read began, with the oracle.
func (s *stream) judge(k int, v uint64, val []byte, err error) error {
	b := s.base[v][k]
	switch {
	case b == 0 && err == nil:
		return fmt.Errorf("Get(%d/%d) = %d bytes, oracle says deleted", k, v, len(val))
	case b == 0:
		return nil
	case err != nil:
		return fmt.Errorf("Get(%d/%d): %w (oracle: value of version %d)", k, v, err, b)
	case string(val) != string(streamValue(k, b)):
		return fmt.Errorf("Get(%d/%d) returned %d bytes that are not version %d's", k, v, len(val), b)
	}
	return nil
}

// checkAll reads every key of the given versions.
func (s *stream) checkAll(t testing.TB, db *DB, versions ...uint64) {
	t.Helper()
	for _, v := range versions {
		for k := 0; k < s.nKeys; k++ {
			if err := s.check(db, k, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSameGCDifferentLocking pins what the garbage collector does — which
// files it collects, in which order, and every byte it moves — for this
// op stream. How retirement and GC hold the engine lock must not change
// one of them (commit 99941ed first recorded them under single exclusive
// holds); only a change to what counts live may, and it re-records them.
func TestSameGCDifferentLocking(t *testing.T) {
	opts := testOptions()
	opts.AOF.FileSize = 256 << 10
	db, err := Open(testFS(t, 1024), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := newStream(20, 200, 70)
	const versions, keep = 16, 4
	for v := uint64(1); v <= versions; v++ {
		s.publish(t, db, v)
		if v > keep {
			s.retire(t, db, v-keep)
		}
	}
	s.checkAll(t, db, versions-3, versions-2, versions-1, versions)
	checkLiveBytes(t, db)
	got := db.Stats().Store
	want := aof.Stats{AppendedBytes: 6324131, GCRuns: 13, GCMoved: 639350, GCFreed: 3365352, Files: 12, LiveBytes: 1909405}
	if got.AppendedBytes != want.AppendedBytes || got.GCRuns != want.GCRuns || got.GCMoved != want.GCMoved ||
		got.GCFreed != want.GCFreed || got.Files != want.Files || got.LiveBytes != want.LiveBytes {
		t.Fatalf("store stats = %+v\nwant AppendedBytes %d GCRuns %d GCMoved %d GCFreed %d Files %d LiveBytes %d",
			got, want.AppendedBytes, want.GCRuns, want.GCMoved, want.GCFreed, want.Files, want.LiveBytes)
	}
}

// checkLiveBytes recounts the store's live bytes from flash and fails the
// test unless Stats agrees to the byte. A data record counts when it is
// its item's current record and the item is live or has a live referrer;
// a tombstone or version-drop record counts until a checkpoint covers it:
// when its seq is at or past the newest checkpoint's floor.
func checkLiveBytes(t testing.TB, db *DB) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	var floor uint64
	for _, n := range db.fs.List() {
		if f, ok := parseCkptName(n); ok {
			floor = max(floor, f)
		}
	}
	var want int64
	for _, id := range db.store.Files() {
		err := db.store.ScanFile(id, func(rec aof.Record, ref aof.Ref) error {
			if rec.IsTombstone() {
				if rec.Seq >= floor {
					want += int64(ref.Len)
				}
				return nil
			}
			if seg, it := lookup(db, rec.Key, rec.Version); it != nil && it.ref == ref && (!seg.deleted(it) || it.refs > 0) {
				want += int64(ref.Len)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan of file %d: %v", id, err)
		}
	}
	if got := db.store.Stats().LiveBytes; got != want {
		t.Fatalf("store counts %d live bytes, flash holds %d", got, want)
	}
}

// TestRePutOfDeletedMarksDeadOnce puts a deleted (k, t) again, unreferenced
// and referenced: the deletion already took an unreferenced record off its
// file's live bytes, and the re-put must not take it off a second time.
func TestRePutOfDeletedMarksDeadOnce(t *testing.T) {
	db := openTestDB(t, 64)
	defer db.Close()
	mustPut(t, db, "a", 1, "first", false)
	if _, err := db.Del([]byte("a"), 1); err != nil {
		t.Fatal(err)
	}
	mustPut(t, db, "a", 1, "second", false)
	checkLiveBytes(t, db)

	mustPut(t, db, "b", 1, "base", false)
	mustPut(t, db, "b", 2, "", true)
	if _, err := db.Del([]byte("b"), 1); err != nil {
		t.Fatal(err)
	}
	checkLiveBytes(t, db)
	mustPut(t, db, "b", 1, "again", false)
	checkLiveBytes(t, db)
	if got := mustGet(t, db, "b", 2); got != "again" {
		t.Fatalf("b/2 = %q, want the re-put base", got)
	}
}

// TestStoreConverges publishes 63 versions at keep-4 into 256 KB files.
// A base's record dies with its last live referrer, so the store holds
// what the last four versions need and little more: from version 32 on,
// the file count and the flash in use stay within two files of their peak
// over versions 8-31, and the live-byte account is exact after every
// version. Two, not one: a retirement runs one GC pass, and a second file
// it made due waits for the next version's deletions (version 41 ends
// with 14 files, two of them candidates, against a peak of 12).
func TestStoreConverges(t *testing.T) {
	opts := testOptions()
	opts.AOF.FileSize = 256 << 10
	db, err := Open(testFS(t, 1024), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := newStream(20, 200, 70)
	const versions, keep, slack = streamMaxVersions - 1, 4, 2
	var peakFiles, peakDisk int64
	for v := uint64(1); v <= versions; v++ {
		s.publish(t, db, v)
		if v > keep {
			s.retire(t, db, v-keep)
		}
		checkLiveBytes(t, db)
		st := db.Stats().Store
		files, disk := int64(st.Files), st.DiskBytes
		switch {
		case v >= 8 && v < 32:
			peakFiles, peakDisk = max(peakFiles, files), max(peakDisk, disk)
		case v >= 32 && (files > peakFiles+slack || disk > peakDisk+slack*opts.AOF.FileSize):
			t.Fatalf("version %d: %d files, %d bytes on flash; versions 8-31 peaked at %d files, %d bytes",
				v, files, disk, peakFiles, peakDisk)
		}
	}
	s.checkAll(t, db, versions-3, versions-2, versions-1, versions)
}

// TestDeletedKeyStaysDeletedAfterGCAndReopen puts (k, 1) twice, leaving
// the first record stale in an older file, deletes it, and collects the
// file that holds the second record and the tombstone. GC drops the
// second record, deleted and unreferenced, but must keep the tombstone:
// no checkpoint holds the deletion, and recovery replays the stale first
// record. Once with no checkpoint at all, once with all of it after one.
func TestDeletedKeyStaysDeletedAfterGCAndReopen(t *testing.T) {
	for _, ckpt := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", ckpt), func(t *testing.T) {
			fs := testFS(t, 64)
			opts := testOptions()
			opts.AOF.FileSize = 8 << 10       // two 5 KB values never share a file
			db, err := openManualGC(fs, opts) // the stale record's file stays
			if err != nil {
				t.Fatal(err)
			}
			val := func(c byte) string { return string(bytes.Repeat([]byte{c}, 5<<10)) }
			if ckpt {
				mustPut(t, db, "other", 1, "x", false)
				if err := db.checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			mustPut(t, db, "k", 1, val('A'), false)
			mustPut(t, db, "k", 1, val('B'), false)
			_, it := lookup(db, "k", 1)
			victim := it.ref.File
			if _, err := db.Del([]byte("k"), 1); err != nil {
				t.Fatal(err)
			}
			mustPut(t, db, "seal", 1, val('S'), false) // rolls over: the victim is sealed
			db.wmu.Lock()
			_, err = db.collectLocked(victim)
			db.wmu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			checkLiveBytes(t, db)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if db, err = Open(fs, opts); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if got, _, err := db.Get([]byte("k"), 1); !errors.Is(err, ErrDeleted) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("k/1 deleted before the reopen reads %.4q... after it (err %v)", got, err)
			}
			checkLiveBytes(t, db)
		})
	}
}

// TestRangeAfterGC: a GC pass that takes items out of a sealed version
// leaves Range listing the live keys only, in order, after each pass, and
// an image written past the passes recovers to the same state.
func TestRangeAfterGC(t *testing.T) {
	opts := testOptions()
	opts.AOF.FileSize = 64 << 10
	fs := testFS(t, 256)
	db, err := openManualGC(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	val := strings.Repeat("v", 1000)
	const keys = 300
	for i := 0; i < keys; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), 1, val, false)
	}
	mustPut(t, db, "z", 2, val, false) // seals version 1's last file
	seg := db.segment(1)
	// del deletes version 1's keys [from, to) and collects what it can.
	del := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := db.Del([]byte(fmt.Sprintf("k%03d", i)), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.checkpoint(); err != nil { // the tombstones may go now
			t.Fatal(err)
		}
		if err := db.collectAll(); err != nil {
			t.Fatal(err)
		}
		checkMemtable(t, db)
	}
	rangeKeys := func() []string {
		var got []string
		db.Range(nil, []byte("k999"), func(k []byte, v uint64) bool {
			got = append(got, fmt.Sprintf("%s/%d", k, v))
			return true
		})
		return got
	}

	del(0, keys/3)
	if n := len(seg.items); n == keys || n < keys-keys/3 {
		t.Fatalf("version 1 holds %d items after GC; want some removed, the %d live kept", n, keys-keys/3)
	}
	if got := rangeKeys(); len(got) != keys-keys/3 || got[0] != "k100/1" {
		t.Fatalf("Range after GC lists %d keys (%v...), want the %d live ones", len(got), got[:min(3, len(got))], keys-keys/3)
	}

	del(keys/3, keys-keys/10)
	if got := rangeKeys(); len(got) != keys/10 || got[0] != "k270/1" {
		t.Fatalf("Range after the second pass lists %d keys (%v...), want the %d live ones", len(got), got[:min(3, len(got))], keys/10)
	}
	// An image written past the passes (a Put moves the floor) holds only
	// the items the map does.
	mustPut(t, db, "y", 2, val, false)
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	db2 := crash(t, db, fs)
	defer db2.Close()
}

// TestRetiredBaseSurvivesGC: a retired version whose one item is still
// the base of a live deduplicated entry stays linked past the GC pass
// that takes the rest of it, with that item alone, through the pass and
// the next checkpoint.
func TestRetiredBaseSurvivesGC(t *testing.T) {
	opts := testOptions()
	opts.AOF.FileSize = 64 << 10
	db, err := openManualGC(testFS(t, 256), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := strings.Repeat("v", 1000)
	const keys = 300
	for i := 0; i < keys; i++ {
		mustPut(t, db, fmt.Sprintf("k%03d", i), 1, val, false)
	}
	mustPut(t, db, "k000", 2, "", true) // reads version 1's k000
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	seg := db.segment(1)
	if _, _, err := db.DropVersion(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ { // seals the file the drop went to
		mustPut(t, db, fmt.Sprintf("k%03d", i), 3, val, false)
	}
	if err := db.collectAll(); err != nil {
		t.Fatal(err)
	}
	if db.segment(1) != seg || len(seg.items) != 1 {
		t.Fatalf("version 1 after GC: linked %v, %d items; want its one referenced base", db.segment(1) == seg, len(seg.items))
	}
	checkMemtable(t, db)
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkMemtable(t, db)
	if got, _, err := db.Get([]byte("k000"), 2); err != nil || string(got) != val {
		t.Fatalf("k000/2 = %d bytes, %v", len(got), err)
	}
}
