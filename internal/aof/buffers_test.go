package aof

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"directload/internal/blockfs/blockfstest"
	"directload/internal/metrics/testutil"
)

// bigConfig never rotates inside a test, so nothing but the record path
// is measured.
func bigConfig() Config { return Config{FileSize: 64 << 20, GCThreshold: 0.25} }

// TestAppendAndReadBudgets: a record is encoded once, into the store's
// scratch buffer, and programmed from there — nothing is allocated once
// the scratch has grown; Read allocates the record's one buffer, and
// ReadAppend into a buffer with room none — beside the file's name and
// handle (fs.Open), two small objects either way.
func TestAppendAndReadBudgets(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	s, err := Open(testFS(t, 256), bigConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Key: []byte("00000000000000000042"), Version: 3, Value: bytes.Repeat([]byte{7}, 20<<10)}
	var ref Ref
	allocs, _ := testutil.AllocsPerRun(200, func() {
		if ref, _, _, err = s.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append allocates %d objects a call, want 0", allocs)
	}
	allocs, size := testutil.AllocsPerRun(200, func() {
		got, _, err := s.Read(ref)
		if err != nil || len(got.Value) != len(rec.Value) {
			t.Fatalf("Read = %d value bytes, %v", len(got.Value), err)
		}
	})
	// The allocator rounds a size up to its class, by an eighth at most.
	const handle = 64 // the file's name and reader, generously
	if allocs > 3 || size < int(ref.Len) || size > int(ref.Len)*9/8+handle {
		t.Errorf("Read allocates %d objects, %d bytes a call; want the one buffer of %d and the file handle", allocs, size, ref.Len)
	}
	dst := make([]byte, 0, 32<<10)
	allocs, size = testutil.AllocsPerRun(200, func() {
		out, _, err := s.ReadAppend(dst, ref)
		if err != nil || len(out) != len(rec.Value) || &out[0] != &dst[:1][0] {
			t.Fatalf("ReadAppend = %d bytes, %v; want the value, in dst's own memory", len(out), err)
		}
	})
	if allocs > 2 || size > handle {
		t.Errorf("ReadAppend into spare capacity allocates %d objects, %d bytes a call; want the file handle only", allocs, size)
	}
}

// TestReadOwnsOneBuffer: the record Read returns is views of one buffer
// that nothing else refers to — not the device's memory, not the store's.
func TestReadOwnsOneBuffer(t *testing.T) {
	s, _ := Open(testFS(t, 64), bigConfig())
	want := Record{Key: []byte("key"), Version: 9, Flags: FlagDropped, Value: []byte("the value")}
	ref, seq, _, err := s.Append(want)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Read(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != seq || got.Version != 9 || got.Flags != FlagDropped || string(got.Key) != "key" || string(got.Value) != "the value" {
		t.Fatalf("Read = %+v", got)
	}
	// Scribbling over the returned record changes nothing a second read sees.
	for i := range got.Value {
		got.Value[i] = 'X'
	}
	s.Append(Record{Key: []byte("other"), Version: 1, Value: bytes.Repeat([]byte{1}, 100)})
	again, _, err := s.Read(ref)
	if err != nil || string(again.Value) != "the value" {
		t.Fatalf("second Read = %q, %v", again.Value, err)
	}
}

// TestReadAppendRules: dst's prefix survives, with or without room behind
// it; a dst without capacity gets the record's room and no more than the
// allocator's rounding; an empty value appends nothing, so a nil dst comes
// back nil; and on every error dst comes back as it was given, the
// checksum being verified before the value moves.
func TestReadAppendRules(t *testing.T) {
	var flip atomic.Bool
	fs := &blockfstest.FS{FS: testFS(t, 64), Flip: func(_ string, _ int64, p []byte) {
		if flip.Load() {
			p[len(p)-1] ^= 0x10 // the last byte of the value
		}
	}}
	s, _ := Open(fs, bigConfig())
	val := bytes.Repeat([]byte("0123456789abcdef"), 1280)
	ref, _, _, err := s.Append(Record{Key: []byte("k"), Version: 1, Value: val})
	if err != nil {
		t.Fatal(err)
	}
	empty, _, _, _ := s.Append(Record{Key: []byte("e"), Version: 1})

	for _, dst := range [][]byte{nil, []byte("prefix"), append(make([]byte, 0, 64<<10), "prefix"...)} {
		out, _, err := s.ReadAppend(dst, ref)
		if err != nil || !bytes.Equal(out[:len(dst)], dst) || !bytes.Equal(out[len(dst):], val) {
			t.Fatalf("ReadAppend(%d/%d) = %d bytes, %v; want dst then the value", len(dst), cap(dst), len(out), err)
		}
		switch {
		case cap(dst) == 0 && cap(out) > int(ref.Len)*9/8:
			t.Errorf("ReadAppend(nil) made %d bytes of room, want the record's %d and the allocator's rounding", cap(out), ref.Len)
		case cap(dst) == 64<<10 && &out[0] != &dst[0]:
			t.Error("ReadAppend reallocated a dst that had room")
		}
		out, _, err = s.ReadAppend(dst, empty)
		if err != nil || !bytes.Equal(out, dst) || (out == nil) != (dst == nil) {
			t.Errorf("ReadAppend of an empty value = %#v, %v; want dst as given", out, err)
		}
	}

	dst := append(make([]byte, 0, 64<<10), "prefix"...)
	if out, _, err := s.ReadAppend(dst, Ref{File: 99, Off: 0, Len: 100}); !errors.Is(err, ErrNoFile) || string(out) != "prefix" {
		t.Fatalf("ReadAppend of an unknown file = %q, %v", out, err)
	}
	flip.Store(true)
	if _, _, err := s.Read(ref); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read over a flipped bit: %v, want ErrCorrupt", err)
	}
	for _, dst := range [][]byte{nil, []byte("prefix"), dst} {
		out, _, err := s.ReadAppend(dst, ref)
		if !errors.Is(err, ErrCorrupt) || !bytes.Equal(out, dst) {
			t.Fatalf("ReadAppend over a flipped bit = %d bytes, %v; want dst unextended and ErrCorrupt", len(out), err)
		}
	}
}
