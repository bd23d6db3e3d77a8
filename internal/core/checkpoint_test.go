package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"testing"

	"directload/internal/aof"
)

func TestAutoCheckpoint(t *testing.T) {
	fs := testFS(t, 512)
	opts := testOptions()
	opts.CheckpointEveryBytes = 256 << 10
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{1}, 8<<10)
	for i := 0; i < 100; i++ { // ~800 KB: should cross the threshold 3x
		mustPut(t, db, fmt.Sprintf("k-%03d", i), 1, string(val), false)
	}
	st := db.Stats()
	if st.Checkpoints < 2 {
		t.Fatalf("Checkpoints = %d, want >= 2 for 800KB at a 256KB cadence", st.Checkpoints)
	}
	db2 := crash(t, db, fs)
	defer db2.Close()
	for i := 0; i < 100; i += 9 {
		if got := mustGet(t, db2, fmt.Sprintf("k-%03d", i), 1); !bytes.Equal([]byte(got), val) {
			t.Fatalf("k-%03d wrong after auto-checkpointed recovery", i)
		}
	}
}

func TestAutoCheckpointDisabledByDefault(t *testing.T) {
	db := openTestDB(t, 256)
	defer db.Close()
	val := bytes.Repeat([]byte{2}, 8<<10)
	for i := 0; i < 50; i++ {
		mustPut(t, db, fmt.Sprintf("k-%02d", i), 1, string(val), false)
	}
	if got := db.Stats().Checkpoints; got != 0 {
		t.Fatalf("Checkpoints = %d, want 0 with the policy disabled", got)
	}
}

// TestCheckpointBoundsRecoveryScan verifies the point of checkpointing:
// recovery reads far less flash when a fresh checkpoint exists, because
// files sealed before it are skipped entirely.
func TestCheckpointBoundsRecoveryScan(t *testing.T) {
	load := func(withCkpt bool) int64 {
		fs := testFS(t, 1024)
		db, err := Open(fs, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte{3}, 10<<10)
		for i := 0; i < 400; i++ { // ~4 MB over ~4 sealed AOFs
			mustPut(t, db, fmt.Sprintf("k-%03d", i), 1, string(val), false)
		}
		if withCkpt {
			if err := db.checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		// A little post-checkpoint traffic so replay has work either way.
		for i := 0; i < 10; i++ {
			mustPut(t, db, fmt.Sprintf("tail-%02d", i), 2, string(val), false)
		}
		db.Close()

		before := fs.Device().Stats().SysReadBytes
		db2 := reopen(t, fs)
		db2.Close()
		return fs.Device().Stats().SysReadBytes - before
	}
	full := load(false)
	bounded := load(true)
	if bounded >= full/2 {
		t.Fatalf("recovery scan with checkpoint read %d bytes vs %d without; want < half", bounded, full)
	}
}

func TestCheckpointAfterGCRecovery(t *testing.T) {
	// Auto-checkpoint interleaved with GC and version churn must still
	// recover exactly.
	fs := testFS(t, 2048)
	opts := Options{
		AOF:                  aof.Config{FileSize: 1 << 20, GCThreshold: 0.25},
		CheckpointEveryBytes: 512 << 10,
	}
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte{4}, 10<<10)
	for v := uint64(1); v <= 6; v++ {
		for i := 0; i < 60; i++ {
			mustPut(t, db, fmt.Sprintf("k-%02d", i), v, string(val), false)
		}
		db.RetainVersions(3)
	}
	if db.Stats().Checkpoints == 0 || db.Stats().Store.GCRuns == 0 {
		t.Fatalf("precondition: checkpoints=%d gc=%d", db.Stats().Checkpoints, db.Stats().Store.GCRuns)
	}
	keys := db.Stats().Keys
	db.Close()

	db2, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.Stats().Keys; got != keys {
		t.Fatalf("Keys after recovery = %d, want %d", got, keys)
	}
	for i := 0; i < 60; i += 7 {
		if got := mustGet(t, db2, fmt.Sprintf("k-%02d", i), 6); !bytes.Equal([]byte(got), val) {
			t.Fatalf("k-%02d/6 wrong", i)
		}
	}
	if vs := db2.Versions(); len(vs) != 3 || vs[0] != 4 {
		t.Fatalf("Versions = %v, want [4 5 6]", vs)
	}
}

// TestCheckpointImageUnchanged pins the checkpoint a publish-and-retire
// stream leaves behind — its size in bytes and a CRC of its items sorted
// by (key, version). Commit 43d2e07 first recorded it, when the memtable
// was one skip list keyed (key, version). Items may come out of the
// memtable in another order; which items there are, with which flags,
// bases and refs, may change only with what counts live, which decides
// what GC removes, or with the flags an item carries, and then it is
// re-recorded.
func TestCheckpointImageUnchanged(t *testing.T) {
	opts := testOptions()
	opts.AOF.FileSize = 256 << 10
	fs := testFS(t, 1024)
	db, err := Open(fs, opts)
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
	if err := db.checkpoint(); err != nil {
		t.Fatal(err)
	}
	var name string
	for _, n := range fs.List() {
		if _, ok := parseCkptName(n); ok {
			name = n
		}
	}
	size, err := fs.Size(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, _, err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// Body: floor, sealed ids, item count, then per item
	// klen | key | version | flags | base | ref.File | ref.Off | ref.Len.
	body := buf[len(ckptMagic) : size-4]
	p := 8
	p += 4 + 4*int(binary.LittleEndian.Uint32(body[p:]))
	count := int(binary.LittleEndian.Uint32(body[p:]))
	p += 4
	type rawItem struct {
		key string
		ver uint64
		raw []byte
	}
	items := make([]rawItem, 0, count)
	for i := 0; i < count; i++ {
		klen := int(binary.LittleEndian.Uint32(body[p:]))
		n := 4 + klen + 8 + 1 + 8 + 4 + 8 + 4
		items = append(items, rawItem{
			key: string(body[p+4 : p+4+klen]),
			ver: binary.LittleEndian.Uint64(body[p+4+klen:]),
			raw: body[p : p+n],
		})
		p += n
	}
	if p != len(body) {
		t.Fatalf("checkpoint body has %d bytes past its %d items", len(body)-p, count)
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].key != items[j].key {
			return items[i].key < items[j].key
		}
		return items[i].ver < items[j].ver
	})
	crc := crc32.NewIEEE()
	for _, it := range items {
		crc.Write(it.raw)
	}
	const wantSize, wantItems, wantCRC = 80156, 1741, 0x968dd11c
	if size != wantSize || count != wantItems || crc.Sum32() != wantCRC {
		t.Fatalf("checkpoint = %d bytes, %d items, item CRC %#x; want %d, %d, %#x",
			size, count, crc.Sum32(), wantSize, wantItems, wantCRC)
	}
}
