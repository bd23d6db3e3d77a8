package aof

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"directload/internal/blockfs"
	"directload/internal/blockfs/blockfstest"
)

// wholeFileScan is ScanFile as it was before it read in pieces — the whole
// file into one buffer, decoded record by record — kept as the reference
// the piecewise scanner is compared with.
func wholeFileScan(fs blockfs.FS, id uint32, fn func(rec Record, ref Ref) error) error {
	name := filename(id)
	size, err := fs.Size(name)
	if err != nil {
		return err
	}
	r, err := fs.Open(name)
	if err != nil {
		return err
	}
	buf := make([]byte, size)
	if size > 0 {
		if _, _, err := r.ReadAt(buf, 0); err != nil {
			return err
		}
	}
	var off int64
	for off < size {
		rec, n, err := DecodeView(buf[off:])
		if err != nil {
			return fmt.Errorf("file %d offset %d: %w", id, off, err)
		}
		if err := fn(rec, Ref{File: id, Off: off, Len: uint32(n)}); err != nil {
			return err
		}
		off += int64(n)
	}
	return nil
}

// writeRaw stores raw bytes as AOF file id, bypassing the store.
func writeRaw(t *testing.T, fs blockfs.FS, id uint32, raw []byte) {
	t.Helper()
	w, err := fs.Create(filename(id))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Append(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScanFileMatchesWholeFileScan runs the piecewise scanner and the
// whole-file reference over files whose records straddle piece
// boundaries, exceed a piece, end torn, or carry a flipped byte, and
// wants the same records, refs and error from both.
func TestScanFileMatchesWholeFileScan(t *testing.T) {
	rec := func(i, valLen int) []byte {
		return AppendRecord(nil, Record{Seq: uint64(i), Version: uint64(i%5 + 1), Key: []byte(fmt.Sprintf("key-%04d", i)),
			Value: bytes.Repeat([]byte{byte(i)}, valLen)})
	}
	var straddle, big, small []byte
	for i := 0; i < 40; i++ { // 100 KB records: one straddles every 1 MB boundary
		straddle = append(straddle, rec(i, 100<<10)...)
	}
	big = append(big, rec(0, 10)...)
	big = append(big, rec(1, scanPiece+scanPiece/2)...) // larger than a piece, starting inside one
	big = append(big, rec(2, 3*scanPiece)...)           // larger still, starting where the last read ended short
	big = append(big, rec(3, 10)...)
	for i := 0; i < 30000; i++ { // 1.2 MB of 40-byte records: a header straddles the boundary
		small = append(small, rec(i, 1)...)
	}
	flipped := append([]byte(nil), straddle...)
	flipped[len(flipped)/2] ^= 0x40
	giant := append([]byte(nil), small...) // a length field that claims more than the file holds
	giant[len(giant)-len(rec(29999, 1))+23+3] = 0x7f
	cases := map[string][]byte{
		"empty":               nil,
		"straddle":            straddle,
		"bigger-than-a-piece": big,
		"tiny-records":        small,
		"torn-tail":           straddle[:len(straddle)-17],
		"torn-header":         small[:len(small)-30],
		"flipped-byte":        flipped,
		"lying-length":        giant,
	}
	id := uint32(0)
	for name, raw := range cases {
		id++
		t.Run(name, func(t *testing.T) {
			fs := testFS(t, 256)
			writeRaw(t, fs, id, raw)
			s, err := Open(fs, smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			type seen struct {
				rec Record
				ref Ref
			}
			var want, got []seen
			wantErr := wholeFileScan(fs, id, func(rec Record, ref Ref) error {
				want = append(want, seen{rec, ref})
				return nil
			})
			gotErr := s.ScanFile(id, func(rec Record, ref Ref) error {
				rec.Key = append([]byte(nil), rec.Key...) // views die with the call
				rec.Value = append([]byte(nil), rec.Value...)
				got = append(got, seen{rec, ref})
				return nil
			})
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || errors.Is(gotErr, ErrCorrupt) != errors.Is(wantErr, ErrCorrupt) {
				t.Fatalf("ScanFile error = %v, whole-file scan = %v", gotErr, wantErr)
			}
			if len(got) != len(want) {
				t.Fatalf("ScanFile saw %d records, whole-file scan %d", len(got), len(want))
			}
			for i := range want {
				w, g := want[i], got[i]
				if g.ref != w.ref || g.rec.Seq != w.rec.Seq || g.rec.Version != w.rec.Version || g.rec.Flags != w.rec.Flags ||
					!bytes.Equal(g.rec.Key, w.rec.Key) || !bytes.Equal(g.rec.Value, w.rec.Value) {
					t.Fatalf("record %d: ScanFile %+v at %+v, whole-file scan %+v at %+v", i, g.rec.Seq, g.ref, w.rec.Seq, w.ref)
				}
			}
		})
	}
}

// countingLocker counts holds and what happened inside each.
type countingLocker struct {
	mu    sync.Mutex
	held  bool
	holds int
	moved []int // records moved per hold
}

func (l *countingLocker) Lock() {
	l.mu.Lock()
	l.held = true
	l.holds++
	l.moved = append(l.moved, 0)
}

func (l *countingLocker) Unlock() {
	l.held = false
	l.mu.Unlock()
}

// TestCollectFileChunksItsHolds collects a file of many small records and
// a file of large live ones: Moved only ever runs under the lock, once a
// record in order, no hold moves more than GCChunk records or much more
// than gcHoldBytes, the victim is still there during the last moving
// hold, and the erase gets a hold of its own.
func TestCollectFileChunksItsHolds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		records int
		valLen  int
		keep    int // keep one record in this many
	}{
		{"small-dead", 5000, 8, 10},
		{"large-live", 48, 20 << 10, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := testFS(t, 256)
			s, _ := Open(fs, smallConfig())
			var first uint32
			for i := 0; i < tc.records; i++ {
				ref, _, _, err := s.Append(Record{Key: []byte(fmt.Sprintf("k%05d", i)), Version: 1, Value: bytes.Repeat([]byte{1}, tc.valLen)})
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = ref.File
				}
			}
			if err := s.Close(); err != nil { // seals the file whatever its fill
				t.Fatal(err)
			}
			var keep []Ref
			for i, ref := range fileRefs(t, s, first) {
				if (i+1)%tc.keep == 0 {
					keep = append(keep, ref)
				}
			}
			lk := &countingLocker{}
			var movedInHold, maxMoved int64
			lastHold := 0
			n := 0
			moved := func(i int, new Ref) {
				if !lk.held {
					t.Error("Moved ran without the lock")
				}
				if i != n {
					t.Errorf("move %d told position %d", n, i)
				}
				if _, err := fs.Size(filename(first)); err != nil {
					t.Error("victim erased before the last record was moved")
				}
				lk.moved[lk.holds-1]++
				n++
				if lk.holds != lastHold {
					lastHold, movedInHold = lk.holds, 0
				}
				movedInHold += int64(new.Len)
				maxMoved = max(maxMoved, movedInHold)
			}
			if _, err := s.CollectFile(first, &refList{refs: keep, moved: moved}, lk); err != nil {
				t.Fatal(err)
			}
			if n != len(keep) {
				t.Fatalf("moved %d records of %d", n, len(keep))
			}
			for i, j := range lk.moved {
				if j > GCChunk {
					t.Fatalf("hold %d moved %d records, more than GCChunk", i, j)
				}
			}
			if last := lk.moved[len(lk.moved)-1]; last != 0 {
				t.Fatalf("the erase shared its hold with %d moved records", last)
			}
			if minHolds := (len(keep)+GCChunk-1)/GCChunk + 1; lk.holds < minHolds {
				t.Fatalf("%d holds for %d records, want at least %d", lk.holds, len(keep), minHolds)
			}
			if limit := int64(gcHoldBytes + tc.valLen + 64); maxMoved > limit {
				t.Fatalf("one hold moved %d bytes, limit %d", maxMoved, limit)
			}
			if _, err := fs.Size(filename(first)); err == nil {
				t.Fatal("victim not erased")
			}
		})
	}
}

// TestCollectFileReadsWhatItMoves collects a file by the refs of the
// records that survive it — runs of adjacent ones, lone ones, and one
// larger than a hold — and counts the bytes the pass reads from the
// victim: exactly the bytes it moves, with each run of adjacent records
// in fewer reads than records.
func TestCollectFileReadsWhatItMoves(t *testing.T) {
	var mu sync.Mutex
	var read int64
	var reads int
	fs := &blockfstest.FS{FS: testFS(t, 256), Flip: func(name string, _ int64, p []byte) {
		if name == filename(0) {
			mu.Lock()
			read += int64(len(p))
			reads++
			mu.Unlock()
		}
	}}
	s, _ := Open(fs, smallConfig())
	var keep []Ref
	for i := 0; i < 200; i++ {
		val := bytes.Repeat([]byte{byte(i)}, 2000+i)
		if i == 150 {
			val = bytes.Repeat([]byte{1}, gcHoldBytes+1000)
		}
		ref, _, _, err := s.Append(Record{Key: []byte(fmt.Sprintf("k%03d", i)), Version: 1, Value: val})
		if err != nil {
			t.Fatal(err)
		}
		if ref.File != 0 {
			t.Fatalf("record %d rolled over into file %d", i, ref.File)
		}
		if i%10 < 4 || i == 150 || i == 177 { // runs of four, a large one, a lone one
			keep = append(keep, ref)
		} else {
			s.MarkDead(ref)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().GCMoved
	mu.Lock()
	read, reads = 0, 0
	mu.Unlock()
	if _, err := s.CollectFile(0, &refList{refs: keep}, new(sync.Mutex)); err != nil {
		t.Fatal(err)
	}
	moved := s.Stats().GCMoved - before
	mu.Lock()
	defer mu.Unlock()
	if moved == 0 || read != moved {
		t.Fatalf("the pass read %d bytes of its victim and moved %d", read, moved)
	}
	if reads >= len(keep) {
		t.Fatalf("%d reads for %d records: adjacent records were read one by one", reads, len(keep))
	}
}
