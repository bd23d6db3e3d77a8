package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"directload/internal/aof"
	"directload/internal/blockfs/blockfstest"
	"directload/internal/metrics/testutil"
)

// TestAllocationBudgets: what a Get, a GetAppend and a Put may allocate.
// A read is the value's one buffer — or nothing but a few words when the
// caller brings the buffer; a write is the memtable's key and item, on a
// device whose blocks have been programmed before (erased blocks keep
// their buffer; a block's first program allocates it).
func TestAllocationBudgets(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	opts := testOptions()
	opts.AOF.FileSize = 8 << 20
	db, err := Open(testFS(t, 512), opts) // 128 MB
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const valLen = 20 << 10
	val := bytes.Repeat([]byte("0123456789abcdef"), valLen/16)
	keys := make([][]byte, 5000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%020d", i))
	}

	// Program most of the device once and give the blocks back.
	for i := 0; i < 5000; i++ {
		if _, err := db.Put(keys[i], 1, val, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.DropVersion(1); err != nil {
		t.Fatal(err)
	}
	if err := db.collectAll(); err != nil {
		t.Fatal(err)
	}
	if erases := db.fs.Device().Stats().Erases; erases < 300 {
		t.Fatalf("precondition: %d blocks erased, want most of the device", erases)
	}

	n := 0
	allocs, size := testutil.AllocsPerRun(1000, func() {
		if _, err := db.Put(keys[n], 2, val, false); err != nil {
			t.Fatal(err)
		}
		n++
	})
	t.Logf("Put: %d objects, %d bytes a call", allocs, size)
	if size > 1024 {
		t.Errorf("Put of %d bytes allocates %d objects, %d bytes a call; want at most 1 KB", valLen, allocs, size)
	}

	allocs, size = testutil.AllocsPerRun(1000, func() {
		n--
		if got, _, err := db.Get(keys[n], 2); err != nil || len(got) != valLen {
			t.Fatalf("Get = %d bytes, %v", len(got), err)
		}
	})
	t.Logf("Get: %d objects, %d bytes a call", allocs, size)
	if size > valLen+2048 {
		t.Errorf("Get of %d bytes allocates %d objects, %d bytes a call; want the value and at most 2 KB more", valLen, allocs, size)
	}

	var dst []byte
	allocs, size = testutil.AllocsPerRun(1000, func() {
		if dst, _, err = db.GetAppend(dst[:0], keys[n], 2); err != nil || len(dst) != valLen {
			t.Fatalf("GetAppend = %d bytes, %v", len(dst), err)
		}
		n++
	})
	t.Logf("GetAppend: %d objects, %d bytes a call", allocs, size)
	if allocs > 4 || size > 128 {
		t.Errorf("GetAppend into a reused buffer allocates %d objects, %d bytes a call; want at most 4 and 128", allocs, size)
	}
}

// TestGetReturnsMemoryOfItsOwn: a value handed out by Get is still the
// same bytes after its version has been dropped, its file collected, the
// blocks erased and the same blocks programmed again by new Puts — no
// reply is a view of device memory, which is what lets an erased block
// keep its buffer.
func TestGetReturnsMemoryOfItsOwn(t *testing.T) {
	db, err := Open(testFS(t, 16), testOptions()) // 4 MB, 1 MB AOFs
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := func(i int, v uint64) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("%04d@%02d;", i, v)), 1000)
	}
	const keys = 150 // 1.2 MB a version
	held := make([][]byte, keys)
	for i := range held {
		mustPut(t, db, fmt.Sprintf("k-%04d", i), 1, string(val(i, 1)), false)
	}
	for i := range held {
		if held[i], _, err = db.Get([]byte(fmt.Sprintf("k-%04d", i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	dev := db.fs.Device()
	for v := uint64(2); v <= 6; v++ {
		for i := 0; i < keys; i++ {
			mustPut(t, db, fmt.Sprintf("k-%04d", i), v, string(val(i, v)), false)
		}
		if _, _, err := db.DropVersion(v - 1); err != nil {
			t.Fatal(err)
		}
		if err := db.collectAll(); err != nil {
			t.Fatal(err)
		}
	}
	// 6 versions of 1.2 MB went through a 4 MB device: every block has been
	// erased and programmed again.
	if st := dev.Stats(); st.Erases < 16 {
		t.Fatalf("precondition: %d erases, want every block of the device reused", st.Erases)
	}
	for i, got := range held {
		if !bytes.Equal(got, val(i, 1)) {
			t.Fatalf("value of k-%04d/1, held since before its blocks were erased and reused, has changed", i)
		}
	}
}

// TestGetAppendRules: dst's prefix survives a read; not-found, deleted and
// corrupt all hand dst back unextended; and a bit flipped on flash under a
// live record fails Get and GetAppend alike with aof.ErrCorrupt — the
// checksum is verified on every read, before the value is moved or
// returned.
func TestGetAppendRules(t *testing.T) {
	var flip atomic.Bool
	fs := &blockfstest.FS{FS: testFS(t, 64), Flip: func(_ string, _ int64, p []byte) {
		if flip.Load() {
			p[len(p)/2] ^= 0x01
		}
	}}
	db, err := Open(fs, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	val := bytes.Repeat([]byte("value "), 700)
	mustPut(t, db, "live", 1, string(val), false)
	mustPut(t, db, "live", 2, "", true) // reads through to version 1
	mustPut(t, db, "gone", 1, "x", false)
	if _, err := db.Del([]byte("gone"), 1); err != nil {
		t.Fatal(err)
	}
	gets0 := db.Stats().Gets

	for _, dst := range [][]byte{nil, []byte("head:"), append(make([]byte, 0, 8192), "head:"...)} {
		for ver := uint64(1); ver <= 2; ver++ {
			out, _, err := db.GetAppend(dst, []byte("live"), ver)
			if err != nil || !bytes.Equal(out[:len(dst)], dst) || !bytes.Equal(out[len(dst):], val) {
				t.Fatalf("GetAppend(%d/%d, live/%d) = %d bytes, %v; want dst then the value", len(dst), cap(dst), ver, len(out), err)
			}
		}
		for _, c := range []struct {
			key  string
			want error
		}{{"missing", ErrNotFound}, {"gone", ErrDeleted}} {
			out, _, err := db.GetAppend(dst, []byte(c.key), 1)
			if !errors.Is(err, c.want) || !bytes.Equal(out, dst) {
				t.Fatalf("GetAppend(%s) = %q, %v; want dst unextended and %v", c.key, out, err, c.want)
			}
		}
	}
	if st := db.Stats(); st.Gets != gets0+6 || st.UserReadBytes != int64(6*len(val)) {
		t.Fatalf("6 reads counted as %d gets, %d value bytes; want 6 and %d", st.Gets-gets0, st.UserReadBytes, 6*len(val))
	}

	// An empty value appends nothing: Get and GetLatest answer nil, as
	// they always have, and a dst comes back as given.
	mustPut(t, db, "empty", 1, "", false)
	if got, _, err := db.Get([]byte("empty"), 1); err != nil || got != nil {
		t.Fatalf("Get of an empty value = %#v, %v; want nil", got, err)
	}
	if got, ver, _, err := db.GetLatest([]byte("empty")); err != nil || got != nil || ver != 1 {
		t.Fatalf("GetLatest of an empty value = %#v, version %d, %v; want nil, 1", got, ver, err)
	}
	if out, _, err := db.GetAppend([]byte("head:"), []byte("empty"), 1); err != nil || string(out) != "head:" {
		t.Fatalf("GetAppend of an empty value = %q, %v; want dst as given", out, err)
	}

	flip.Store(true)
	if got, _, err := db.Get([]byte("live"), 1); !errors.Is(err, aof.ErrCorrupt) || got != nil {
		t.Fatalf("Get over a flipped bit = %d bytes, %v; want aof.ErrCorrupt", len(got), err)
	}
	dst := []byte("head:")
	for ver := uint64(1); ver <= 2; ver++ {
		out, _, err := db.GetAppend(dst, []byte("live"), ver)
		if !errors.Is(err, aof.ErrCorrupt) || string(out) != "head:" {
			t.Fatalf("GetAppend(live/%d) over a flipped bit = %q, %v; want dst unextended and aof.ErrCorrupt", ver, out, err)
		}
	}
	flip.Store(false)
	if got := mustGet(t, db, "live", 2); got != string(val) {
		t.Fatal("the record reads wrong once the bit is back")
	}
}

// TestGetAppendAllocs: a GetAppend into a buffer with room for the whole
// record (it is read and verified there) makes no allocation, direct read
// or dedup traceback alike. The memtable probe indexes the version's map
// with the caller's key bytes, and the store reads through the reader it
// keeps for the file, so neither a file name nor a reader is made.
func TestGetAppendAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocations are counted without the race detector")
	}
	db := openTestDB(t, 64)
	defer db.Close()
	val := bytes.Repeat([]byte("v"), 128)
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("url-%016d", i))
		if _, err := db.Put(keys[i], 1, val, false); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Put(keys[i], 2, nil, true); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]byte, 0, 4096)
	for ver := uint64(1); ver <= 2; ver++ {
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			out, _, err := db.GetAppend(dst[:0], keys[i%len(keys)], ver)
			if err != nil || len(out) != len(val) {
				t.Fatalf("GetAppend = %d bytes, %v", len(out), err)
			}
			i++
		})
		if allocs > 0 {
			t.Errorf("GetAppend at version %d makes %.1f allocations; want none", ver, allocs)
		}
	}
}
