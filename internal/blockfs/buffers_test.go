package blockfs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"directload/internal/metrics/testutil"
	"directload/internal/ssd"
)

// fillFile appends n bytes of seeded noise to a new file in pieces of
// uneven size and returns the writer, a reader and the bytes written.
func fillFile(t *testing.T, fs FS, name string, n int) (Writer, Reader, []byte) {
	t.Helper()
	w, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(n)))
	rng.Read(data)
	for off := 0; off < n; {
		step := min(1+rng.Intn(9000), n-off)
		at, _, err := w.Append(data[off : off+step])
		if err != nil || at != int64(off) {
			t.Fatalf("Append at %d = %d, %v", off, at, err)
		}
		off += step
	}
	r, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return w, r, data
}

// TestReadAtAllocatesNothing: a read lands in p and nowhere else — over
// flushed pages, over the tail, and across both.
func TestReadAtAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	eachFS(t, func(t *testing.T, fs FS) {
		_, r, data := fillFile(t, fs, "f", 50000) // 12 pages flushed, 848 bytes in the tail
		p := make([]byte, 20503)
		for _, rd := range []struct {
			name string
			off  int64
			n    int
		}{
			{"flushed", 12000, 20503},
			{"tail", 49300, 600},
			{"flushed+tail", 40000, 10000},
		} {
			allocs, _ := testutil.AllocsPerRun(100, func() {
				if n, _, err := r.ReadAt(p[:rd.n], rd.off); err != nil || n != rd.n {
					t.Fatalf("%s: ReadAt = %d, %v", rd.name, n, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s: ReadAt allocates %d objects a call, want 0", rd.name, allocs)
			}
			if !bytes.Equal(p[:rd.n], data[rd.off:int(rd.off)+rd.n]) {
				t.Errorf("%s: ReadAt returned other bytes than were appended", rd.name)
			}
		}
	})
}

// TestAppendAllocatesNothing: whole pages are programmed from the caller's
// slice and the remainder kept in the file's one tail page, so a steady
// stream of appends allocates nothing — on blocks that have been
// programmed before, which keep their buffer across the erase.
func TestAppendAllocatesNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	fs := NewNativeFS(testDevice(t, 64))
	w, _, _ := fillFile(t, fs, "warm", 60*256<<10)
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Remove("warm"); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{20 << 10, 128} {
		w, _, _ := fillFile(t, fs, "f", 3<<20) // the page table has grown
		p := make([]byte, size)
		allocs, _ := testutil.AllocsPerRun(200, func() {
			if _, _, err := w.Append(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Append of %d bytes allocates %d objects a call, want 0", size, allocs)
		}
		w.Close()
		fs.Remove("f")
	}
}

// TestReadAtMatchesModel reads random windows of a file — page-aligned,
// straddling, inside the tail, across flushed pages and tail, running off
// the end — while it grows and after it is closed, and compares each with
// the same window of the bytes appended.
func TestReadAtMatchesModel(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		w, err := fs.Create("f")
		if err != nil {
			t.Fatal(err)
		}
		r, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		var model []byte
		check := func() {
			t.Helper()
			size := int64(len(model))
			if r.Size() != size {
				t.Fatalf("Size = %d, want %d", r.Size(), size)
			}
			for i := 0; i < 40; i++ {
				var off int64
				var n int
				switch i % 5 {
				case 0: // page-aligned
					off, n = rng.Int63n(size)&^4095, 4096*(1+rng.Intn(3))
				case 1: // straddling
					off, n = rng.Int63n(size), 1+rng.Intn(12000)
				case 2: // the last bytes: the tail while the file is open
					n = 1 + rng.Intn(int(min(size, 4000)))
					off = size - int64(n)
				case 3: // flushed pages and tail
					off, n = max(0, size-4096-rng.Int63n(8192)), 16384
				case 4: // runs off the end
					off, n = size-1-rng.Int63n(min(size, 5000)), 9000
				}
				p := bytes.Repeat([]byte{0xEE}, n+8)
				got, _, err := r.ReadAt(p[:n], off)
				want := model[off:min(off+int64(n), size)]
				if err != nil || got != len(want) || !bytes.Equal(p[:got], want) {
					t.Fatalf("ReadAt(%d bytes, %d) of %d = %d, %v; differs from the bytes appended", n, off, size, got, err)
				}
				if !bytes.Equal(p[got:], bytes.Repeat([]byte{0xEE}, len(p)-got)) {
					t.Fatalf("ReadAt(%d bytes, %d) wrote past the %d bytes it returned", n, off, got)
				}
			}
		}
		for round := 0; round < 60; round++ {
			p := make([]byte, 1+rng.Intn(3*4096))
			if round%7 == 0 {
				p = p[:1+rng.Intn(100)]
			}
			rng.Read(p)
			if off, _, err := w.Append(p); err != nil || off != int64(len(model)) {
				t.Fatalf("Append = %d, %v", off, err)
			}
			model = append(model, p...)
			check()
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		check()
	})
}

// TestReadAccountingPinned: what a read costs the device is what it cost
// before reads landed in the caller's slice. The numbers were recorded at
// commit 8edad56 with this sequence: every page a read touches is one
// whole page on SysReadBytes, one PageRead on the clock and one onRead
// call, however few of its bytes are wanted; tail bytes are free.
func TestReadAccountingPinned(t *testing.T) {
	dev := testDevice(t, 64)
	fs := NewNativeFS(dev)
	_, r, _ := fillFile(t, fs, "f", 50000)
	var hooks int
	dev.SetTraceFuncs(nil, func(time.Duration, int64) { hooks++ })
	before := dev.Stats()
	var cost time.Duration
	for _, rd := range []struct {
		off int64
		n   int
	}{
		{100, 200},     // inside one page
		{4000, 200},    // straddles two pages
		{8192, 4096},   // exactly one page
		{12000, 20503}, // a whole 20 KB record across six pages
		{49000, 1000},  // flushed page + tail
		{49500, 400},   // tail only: no device read
		{45056, 8192},  // truncated at EOF
	} {
		_, c, err := r.ReadAt(make([]byte, rd.n), rd.off)
		if err != nil {
			t.Fatal(err)
		}
		cost += c
	}
	after := dev.Stats()
	const wantBytes, wantBusy, wantHooks = 49152, 960 * time.Microsecond, 12
	if got := after.SysReadBytes - before.SysReadBytes; got != wantBytes {
		t.Errorf("SysReadBytes grew by %d, want %d", got, wantBytes)
	}
	if got := after.BusyTime - before.BusyTime; got != wantBusy || cost != wantBusy {
		t.Errorf("BusyTime grew by %v and ReadAt returned %v, want %v", got, cost, wantBusy)
	}
	if hooks != wantHooks {
		t.Errorf("onRead ran %d times, want %d", hooks, wantHooks)
	}
}

// TestRefusedAppendIsLateNotTorn: when the device runs out of blocks in
// the middle of an append, all of it is in the file all the same — the
// pages that reached flash on flash, the rest waiting in the tail — and the
// next Append programs what was refused before its own bytes, so the file
// is what was appended, in order, whether or not space ever comes back.
func TestRefusedAppendIsLateNotTorn(t *testing.T) {
	fs := NewNativeFS(testDevice(t, 3)) // 768 KB
	ballast, _ := fs.Create("ballast")
	if _, _, err := ballast.Append(make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	ballast.Close()
	w, err := fs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := fs.Open("f")
	var model []byte
	rng := rand.New(rand.NewSource(3))
	check := func(when string) {
		t.Helper()
		if r.Size() != int64(len(model)) || w.Offset() != int64(len(model)) {
			t.Fatalf("%s: Size %d, Offset %d, want the %d bytes appended", when, r.Size(), w.Offset(), len(model))
		}
		got := make([]byte, len(model))
		if n, _, err := r.ReadAt(got, 0); err != nil || n != len(model) || !bytes.Equal(got, model) {
			t.Fatalf("%s: ReadAt of the whole file = %d, %v; want all %d bytes appended", when, n, err, len(model))
		}
	}
	appendSome := func() error {
		p := make([]byte, 30000)
		rng.Read(p)
		off, _, err := w.Append(p)
		if off != int64(len(model)) {
			t.Fatalf("Append at %d, want %d", off, len(model))
		}
		model = append(model, p...)
		return err
	}
	for err == nil {
		err = appendSome()
	}
	if !errors.Is(err, ssd.ErrNoFreeBlocks) || len(model)%(256<<10) == 0 {
		t.Fatalf("precondition: refused mid-append by a full device; got %v at %d", err, len(model))
	}
	check("after the refusal")
	if err := appendSome(); !errors.Is(err, ssd.ErrNoFreeBlocks) {
		t.Fatalf("Append on a device still full: %v", err)
	}
	if _, err := w.Sync(); !errors.Is(err, ssd.ErrNoFreeBlocks) {
		t.Fatalf("Sync on a device still full: %v", err)
	}
	check("after a second refusal")

	if _, err := fs.Remove("ballast"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := appendSome(); err != nil {
			t.Fatalf("Append with space again: %v", err)
		}
	}
	check("with space again")
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	check("closed")
	if used, want := fs.UsedBytes(), int64(len(model)+4095)&^4095; used != want {
		t.Fatalf("UsedBytes = %d, want the file's %d pages and no more", used, want)
	}
}
