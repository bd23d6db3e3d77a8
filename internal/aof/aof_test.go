package aof

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"directload/internal/blockfs"
	"directload/internal/blockfs/blockfstest"
	"directload/internal/metrics"
	"directload/internal/ssd"
)

func testFS(t *testing.T, blocks int) blockfs.FS {
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

// scanAll visits every record in (file id, offset) order — the order
// the engine's recovery scan walks the store in.
func scanAll(s *Store, fn func(rec Record, ref Ref) error) error {
	for _, id := range s.Files() {
		if err := s.ScanFile(id, fn); err != nil {
			return err
		}
	}
	return nil
}

func smallConfig() Config {
	return Config{FileSize: 1 << 20, GCThreshold: 0.25} // 1 MB AOFs for tests
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Record{
		{Key: []byte("k"), Version: 1, Value: []byte("v")},
		{Key: []byte("key/with/slashes"), Version: 1 << 40, Value: bytes.Repeat([]byte{7}, 5000)},
		{Key: []byte("dedup"), Version: 3, Flags: FlagDedup},
		{Key: []byte("dead"), Version: 9, Flags: FlagTombstone},
		{Key: []byte{}, Version: 0},
	}
	for i, rec := range cases {
		buf := AppendRecord(nil, rec)
		got, n, err := DecodeView(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if n != len(buf) {
			t.Fatalf("case %d: n = %d, want %d", i, n, len(buf))
		}
		if !bytes.Equal(got.Key, rec.Key) && !(len(got.Key) == 0 && len(rec.Key) == 0) {
			t.Fatalf("case %d: key %q != %q", i, got.Key, rec.Key)
		}
		if got.Version != rec.Version || got.Flags != rec.Flags {
			t.Fatalf("case %d: meta mismatch %+v", i, got)
		}
		if !bytes.Equal(got.Value, rec.Value) {
			t.Fatalf("case %d: value mismatch", i)
		}
	}
}

func TestDecodeCorruption(t *testing.T) {
	buf := AppendRecord(nil, Record{Key: []byte("k"), Version: 1, Value: []byte("hello")})
	if _, _, err := DecodeView(buf[:3]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short header err = %v", err)
	}
	if _, _, err := DecodeView(buf[:len(buf)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short body err = %v", err)
	}
	buf[len(buf)-1] ^= 0xFF
	if _, _, err := DecodeView(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip err = %v", err)
	}
}

func TestAppendRead(t *testing.T) {
	s, err := Open(testFS(t, 64), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Key: []byte("url1"), Version: 5, Value: []byte("payload")}
	ref, _, _, err := s.Append(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Read(ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Key) != "url1" || got.Version != 5 || string(got.Value) != "payload" {
		t.Fatalf("Read = %+v", got)
	}
}

func TestFileRotation(t *testing.T) {
	s, _ := Open(testFS(t, 256), smallConfig())
	val := bytes.Repeat([]byte{1}, 100<<10) // 100 KB values
	for i := 0; i < 25; i++ {               // ~2.5 MB total > 2 files
		if _, _, _, err := s.Append(Record{Key: []byte(fmt.Sprintf("k%02d", i)), Version: 1, Value: val}); err != nil {
			t.Fatal(err)
		}
	}
	if files := s.Files(); len(files) < 3 {
		t.Fatalf("Files = %v, want >= 3 after rotation", files)
	}
	st := s.Stats()
	if st.LiveBytes != st.TotalBytes {
		t.Fatalf("all records live: live %d != total %d", st.LiveBytes, st.TotalBytes)
	}
}

func TestMarkDeadOccupancy(t *testing.T) {
	s, _ := Open(testFS(t, 64), smallConfig())
	var refs []Ref
	for i := 0; i < 10; i++ {
		ref, _, _, _ := s.Append(Record{Key: []byte{byte(i)}, Version: 1, Value: make([]byte, 1000)})
		refs = append(refs, ref)
	}
	if st := s.Stats(); st.Files != 1 || st.LiveBytes != st.TotalBytes {
		t.Fatalf("initial stats = %+v, want one fully live file", st)
	}
	for _, r := range refs[:5] {
		s.MarkDead(r)
	}
	st := s.Stats()
	if occ := float64(st.LiveBytes) / float64(st.TotalBytes); occ <= 0.45 || occ >= 0.55 {
		t.Fatalf("occupancy after killing half = %v, want ~0.5", occ)
	}
	s.MarkDead(Ref{File: 999, Len: 1000})
	if got := s.Stats(); got != st {
		t.Fatalf("MarkDead of an unknown file changed stats: %+v -> %+v", st, got)
	}
}

func TestScanAllOrder(t *testing.T) {
	s, _ := Open(testFS(t, 256), smallConfig())
	val := bytes.Repeat([]byte{2}, 200<<10)
	for i := 0; i < 10; i++ {
		s.Append(Record{Key: []byte{byte(i)}, Version: uint64(i), Value: val})
	}
	var seen []uint64
	if err := scanAll(s, func(rec Record, ref Ref) error {
		seen = append(seen, rec.Version)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("scanned %d records, want 10", len(seen))
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("scan order broken at %d: %v", i, seen)
		}
	}
}

func TestCandidatesThreshold(t *testing.T) {
	s, _ := Open(testFS(t, 256), smallConfig())
	val := bytes.Repeat([]byte{3}, 100<<10)
	var refs []Ref
	for i := 0; i < 25; i++ {
		ref, _, _, _ := s.Append(Record{Key: []byte{byte(i)}, Version: 1, Value: val})
		refs = append(refs, ref)
	}
	if len(s.Candidates()) != 0 {
		t.Fatal("no candidates expected while fully live")
	}
	// Kill every record in the first file.
	first := refs[0].File
	for _, r := range refs {
		if r.File == first {
			s.MarkDead(r)
		}
	}
	cands := s.Candidates()
	if len(cands) != 1 || cands[0] != first {
		t.Fatalf("Candidates = %v, want [%d]", cands, first)
	}
}

// TestCandidatesEqualOccupancyOrder: files with the same occupancy (the
// fully dead ones a DropVersion leaves) come back in ascending file-id
// order on every call, not in map order, so identical runs collect the
// same files in the same sequence.
func TestCandidatesEqualOccupancyOrder(t *testing.T) {
	s, _ := Open(testFS(t, 256), smallConfig())
	val := bytes.Repeat([]byte{5}, 100<<10)
	var refs []Ref
	for i := 0; i < 100; i++ { // ~10 MB: nine sealed 1 MB files and the active one
		ref, _, _, err := s.Append(Record{Key: []byte{byte(i)}, Version: 1, Value: val})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	active := refs[len(refs)-1].File
	var want []uint32
	for _, r := range refs {
		if r.File == active {
			continue
		}
		s.MarkDead(r)
		if len(want) == 0 || want[len(want)-1] != r.File {
			want = append(want, r.File) // appends are in ascending file order
		}
	}
	if len(want) < 8 {
		t.Fatalf("sealed %d files, want >= 8", len(want))
	}
	for call := 0; call < 100; call++ {
		got := s.Candidates()
		if len(got) != len(want) {
			t.Fatalf("call %d: Candidates = %v, want %v", call, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d: Candidates = %v, want ascending %v", call, got, want)
			}
		}
		if id, ok := s.PressureCandidate(); !ok || id != want[0] {
			t.Fatalf("call %d: PressureCandidate = %d, %v; want file %d", call, id, ok, want[0])
		}
	}
}

func TestActiveFileNeverCandidate(t *testing.T) {
	s, _ := Open(testFS(t, 64), smallConfig())
	ref, _, _, _ := s.Append(Record{Key: []byte("a"), Version: 1, Value: make([]byte, 100)})
	s.MarkDead(ref)
	if len(s.Candidates()) != 0 {
		t.Fatal("the active file must not be a GC candidate")
	}
	if _, err := s.CollectFile(ref.File, nil, new(sync.Mutex), nil, nil); err == nil {
		t.Fatal("collecting the active file should fail")
	}
	// The refusal releases the store: the next append completes.
	done := make(chan error, 1)
	go func() {
		_, _, _, err := s.Append(Record{Key: []byte("b"), Version: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Append after the refused collection: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append after the refused collection never completed: the store lock is still held")
	}
}

// TestSyncReturnsFlashError: a failed flush of the active file reaches
// Sync's caller.
func TestSyncReturnsFlashError(t *testing.T) {
	boom := errors.New("injected sync failure")
	s, err := Open(&blockfstest.FS{FS: testFS(t, 64), Sync: func(string) error { return boom }}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Append(Record{Key: []byte("a"), Version: 1, Value: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync = %v, want the injected failure", err)
	}
}

// fileRefs returns the refs of every record in file id, in file order.
func fileRefs(t *testing.T, s *Store, id uint32) []Ref {
	t.Helper()
	var refs []Ref
	if err := s.ScanFile(id, func(_ Record, ref Ref) error { refs = append(refs, ref); return nil }); err != nil {
		t.Fatal(err)
	}
	return refs
}

func TestCollectFilePreservesJudgedRecords(t *testing.T) {
	s, _ := Open(testFS(t, 256), smallConfig())
	val := bytes.Repeat([]byte{4}, 100<<10)
	type item struct {
		ref  Ref
		live bool
	}
	items := map[string]*item{}
	for i := 0; i < 25; i++ {
		key := fmt.Sprintf("k%02d", i)
		ref, _, _, _ := s.Append(Record{Key: []byte(key), Version: 1, Value: val})
		items[key] = &item{ref: ref, live: i%5 == 0} // keep 1 in 5
	}
	firstFile := items["k00"].ref.File
	for key, it := range items {
		if it.ref.File == firstFile && !it.live {
			s.MarkDead(it.ref)
		}
		_ = key
	}
	if got := s.Candidates(); len(got) == 0 || got[0] != firstFile {
		t.Fatalf("candidates = %v", got)
	}
	judge := func(rec *Record, ref Ref) bool { return items[string(rec.Key)].live }
	var relocations int
	before := s.Stats()
	_, err := s.CollectFile(firstFile, fileRefs(t, s, firstFile), new(sync.Mutex), judge, func(rec Record, old, new Ref) {
		items[string(rec.Key)].ref = new
		relocations++
		if old.File != firstFile {
			t.Errorf("relocated from wrong file %d", old.File)
		}
		if new.File == firstFile {
			t.Error("relocated into the erased file")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if relocations == 0 {
		t.Fatal("expected relocations of live records")
	}
	after := s.Stats()
	if reclaimed := (after.GCFreed - before.GCFreed) - (after.GCMoved - before.GCMoved); reclaimed <= 0 {
		t.Fatal("expected reclaimed bytes")
	}
	// Live records must still read back from their new refs.
	for key, it := range items {
		if !it.live || it.ref.File != 0 && it.ref.File == firstFile {
			continue
		}
		if it.live {
			rec, _, err := s.Read(it.ref)
			if err != nil {
				t.Fatalf("read %s after GC: %v", key, err)
			}
			if string(rec.Key) != key {
				t.Fatalf("wrong record after GC: %q", rec.Key)
			}
		}
	}
	// The file is gone.
	if err := s.ScanFile(firstFile, func(Record, Ref) error { return nil }); err == nil {
		t.Fatal("victim file should be erased")
	}
	if st := s.Stats(); st.GCRuns != 1 || st.GCFreed == 0 {
		t.Fatalf("GC stats = %+v", st)
	}
}

// TestStatsAreRegistryCells pins that Stats' lifetime counters are kept
// once: with a registry they are its aof.* cells, and without one the
// store counts the same numbers in cells of its own.
func TestStatsAreRegistryCells(t *testing.T) {
	run := func(reg *metrics.Registry) Stats {
		cfg := smallConfig()
		cfg.Metrics = reg
		s, err := Open(testFS(t, 256), cfg)
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte{5}, 100<<10)
		var refs []Ref
		for i := 0; i < 25; i++ {
			ref, _, _, err := s.Append(Record{Key: []byte(fmt.Sprintf("k%02d", i)), Version: 1, Value: val})
			if err != nil {
				t.Fatal(err)
			}
			refs = append(refs, ref)
		}
		first := refs[0].File
		var keep []Ref
		for i, ref := range refs {
			if ref.File != first {
				continue
			}
			if i%5 == 0 {
				keep = append(keep, ref)
			} else {
				s.MarkDead(ref)
			}
		}
		judge := func(*Record, Ref) bool { return true }
		if _, err := s.CollectFile(first, keep, new(sync.Mutex), judge, nil); err != nil {
			t.Fatal(err)
		}
		return s.Stats()
	}

	reg := metrics.NewRegistry()
	st := run(reg)
	if st.GCRuns != 1 || st.GCMoved == 0 || st.GCFreed <= st.GCMoved {
		t.Fatalf("one pass over a mostly dead file: %+v", st)
	}
	for name, got := range map[string]int64{
		"aof.append.bytes":   st.AppendedBytes,
		"aof.gc.collects":    st.GCRuns,
		"aof.gc.moved_bytes": st.GCMoved,
		"aof.gc.freed_bytes": st.GCFreed,
	} {
		if cell := reg.Counter(name).Load(); cell != got {
			t.Errorf("%s = %d, Stats has %d", name, cell, got)
		}
	}
	if bare := run(nil); bare != st {
		t.Fatalf("without a registry Stats = %+v, with one %+v", bare, st)
	}
}

func TestRecoveryScanRebuild(t *testing.T) {
	fs := testFS(t, 256)
	s, _ := Open(fs, smallConfig())
	val := bytes.Repeat([]byte{6}, 50<<10)
	want := map[string]Ref{}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("key-%03d", i)
		ref, _, _, _ := s.Append(Record{Key: []byte(key), Version: uint64(i), Value: val})
		want[key] = ref
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash": reopen over the same filesystem and rebuild liveness.
	s2, err := Open(fs, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Ref{}
	if err := scanAll(s2, func(rec Record, ref Ref) error {
		got[string(rec.Key)] = ref
		s2.MarkLive(ref)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for key, ref := range want {
		if got[key] != ref {
			t.Fatalf("ref mismatch for %s: %+v != %+v", key, got[key], ref)
		}
		rec, _, err := s2.Read(ref)
		if err != nil || string(rec.Key) != key {
			t.Fatalf("read after recovery failed for %s: %v", key, err)
		}
	}
	// Liveness restored: every sealed file is fully live again.
	if st := s2.Stats(); st.LiveBytes != st.TotalBytes || len(s2.Candidates()) != 0 {
		t.Fatalf("after MarkLive rebuild live %d != total %d (candidates %v)", st.LiveBytes, st.TotalBytes, s2.Candidates())
	}
}

func TestOpenValidation(t *testing.T) {
	fs := testFS(t, 16)
	if _, err := Open(fs, Config{FileSize: 0}); err == nil {
		t.Fatal("zero file size should be rejected")
	}
	if _, err := Open(fs, Config{FileSize: 1, GCThreshold: 2}); err == nil {
		t.Fatal("threshold > 1 should be rejected")
	}
}

// Property: encode/decode round-trips arbitrary records.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(key []byte, version uint64, flags uint8, value []byte) bool {
		if len(key) > 60000 {
			key = key[:60000]
		}
		rec := Record{Key: key, Version: version, Flags: flags, Value: value}
		got, n, err := DecodeView(AppendRecord(nil, rec))
		if err != nil || n != EncodedLen(len(key), len(value)) {
			return false
		}
		return bytes.Equal(got.Key, key) && got.Version == version &&
			got.Flags == flags && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
