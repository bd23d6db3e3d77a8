package blockfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"directload/internal/ssd"
)

func testDevice(t *testing.T, blocks int) *ssd.Device {
	t.Helper()
	cfg := ssd.Config{
		PageSize:      4096,
		PagesPerBlock: 64,
		Blocks:        blocks,
		Latency: ssd.LatencyModel{
			PageRead:   80 * time.Microsecond,
			PageWrite:  200 * time.Microsecond,
			BlockErase: 1500 * time.Microsecond,
			Channels:   1,
		},
	}
	d, err := ssd.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// eachFS runs the test against both backends.
func eachFS(t *testing.T, fn func(t *testing.T, fs FS)) {
	t.Run("native", func(t *testing.T) {
		fn(t, NewNativeFS(testDevice(t, 64)))
	})
	t.Run("ftl", func(t *testing.T) {
		d := testDevice(t, 64)
		f, err := ssd.NewFTL(d, 48*64)
		if err != nil {
			t.Fatal(err)
		}
		fn(t, NewFTLFS(f))
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		w, err := fs.Create("f1")
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 10000) // crosses page boundaries
		rand.New(rand.NewSource(1)).Read(data)
		off, _, err := w.Append(data)
		if err != nil || off != 0 {
			t.Fatalf("Append = %d, %v", off, err)
		}
		off2, _, _ := w.Append([]byte("tail"))
		if off2 != 10000 {
			t.Fatalf("second Append offset = %d, want 10000", off2)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := fs.Open("f1")
		if err != nil {
			t.Fatal(err)
		}
		if r.Size() != 10004 {
			t.Fatalf("Size = %d, want 10004", r.Size())
		}
		got := make([]byte, 10000)
		n, _, err := r.ReadAt(got, 0)
		if err != nil || n != 10000 {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round-trip mismatch")
		}
		small := make([]byte, 4)
		if _, _, err := r.ReadAt(small, 10000); err != nil {
			t.Fatal(err)
		}
		if string(small) != "tail" {
			t.Fatalf("tail read = %q", small)
		}
	})
}

func TestReadWhileWriting(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		w, _ := fs.Create("live")
		w.Append([]byte("hello "))
		r, err := fs.Open("live")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 6)
		if _, _, err := r.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "hello " {
			t.Fatalf("read unflushed tail = %q", buf)
		}
		w.Append([]byte("world"))
		buf = make([]byte, 11)
		r.ReadAt(buf, 0)
		if string(buf) != "hello world" {
			t.Fatalf("after second append = %q", buf)
		}
		w.Close()
	})
}

func TestTailReadIsFree(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		w, _ := fs.Create("t")
		w.Append([]byte("buffered"))
		r, _ := fs.Open("t")
		buf := make([]byte, 8)
		_, cost, err := r.ReadAt(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cost != 0 {
			t.Fatalf("tail read cost = %v, want 0 (memory hit)", cost)
		}
		w.Close()
		// After close the page is on flash: reads now cost device time.
		_, cost, _ = r.ReadAt(buf, 0)
		if cost == 0 {
			t.Fatal("flash read should have non-zero cost")
		}
	})
}

func TestOffsetErrors(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		w, _ := fs.Create("f")
		w.Append([]byte("abc"))
		w.Close()
		r, _ := fs.Open("f")
		buf := make([]byte, 1)
		if _, _, err := r.ReadAt(buf, -1); !errors.Is(err, ErrOffset) {
			t.Fatalf("negative offset err = %v", err)
		}
		if _, _, err := r.ReadAt(buf, 3); !errors.Is(err, ErrOffset) {
			t.Fatalf("offset at EOF err = %v", err)
		}
		// Short read at the boundary returns available prefix.
		buf = make([]byte, 10)
		n, _, err := r.ReadAt(buf, 1)
		if err != nil || n != 2 {
			t.Fatalf("short read = %d, %v; want 2, nil", n, err)
		}
	})
}

func TestCreateExistingFails(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		w, _ := fs.Create("dup")
		w.Close()
		if _, err := fs.Create("dup"); !errors.Is(err, ErrExists) {
			t.Fatalf("want ErrExists, got %v", err)
		}
	})
}

func TestOpenMissing(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		if _, err := fs.Open("nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("want ErrNotFound, got %v", err)
		}
		if _, err := fs.Size("nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Size want ErrNotFound, got %v", err)
		}
		if _, err := fs.Remove("nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Remove want ErrNotFound, got %v", err)
		}
	})
}

func TestRemoveOpenWriterFails(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		fs.Create("open")
		if _, err := fs.Remove("open"); !errors.Is(err, ErrWriterOpen) {
			t.Fatalf("want ErrWriterOpen, got %v", err)
		}
	})
}

func TestWriterClosedErrors(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		w, _ := fs.Create("c")
		w.Close()
		if _, _, err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Append after close err = %v", err)
		}
		if _, err := w.Close(); !errors.Is(err, ErrClosed) {
			t.Fatalf("double Close err = %v", err)
		}
	})
}

func TestListAndSize(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		for _, n := range []string{"b", "a", "c"} {
			w, _ := fs.Create(n)
			w.Append(make([]byte, 5000))
			w.Close()
		}
		got := fs.List()
		if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
			t.Fatalf("List = %v", got)
		}
		sz, _ := fs.Size("a")
		if sz != 5000 {
			t.Fatalf("Size = %d", sz)
		}
	})
}

func TestRemoveFreesSpace(t *testing.T) {
	// Native backend: removing a file must return its blocks to the
	// device free list immediately.
	dev := testDevice(t, 8)
	fs := NewNativeFS(dev)
	w, _ := fs.Create("big")
	w.Append(make([]byte, 3*256<<10)) // 3 blocks
	w.Close()
	if free := dev.FreeBlocks(); free != 5 {
		t.Fatalf("FreeBlocks = %d, want 5", free)
	}
	if _, err := fs.Remove("big"); err != nil {
		t.Fatal(err)
	}
	if free := dev.FreeBlocks(); free != 8 {
		t.Fatalf("FreeBlocks after Remove = %d, want 8", free)
	}
	if fs.UsedBytes() != 0 {
		t.Fatalf("UsedBytes = %d, want 0", fs.UsedBytes())
	}
}

func TestNativeRemoveZeroMigration(t *testing.T) {
	// The core paper claim for block-aligned files: create/delete churn
	// causes zero valid-page migration, so sys writes == logical writes.
	dev := testDevice(t, 32)
	fs := NewNativeFS(dev)
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("aof-%d", i)
		w, _ := fs.Create(name)
		w.Append(make([]byte, 5*256<<10))
		w.Close()
		if i >= 3 {
			fs.Remove(fmt.Sprintf("aof-%d", i-3))
		}
	}
	st := dev.Stats()
	wantWrites := int64(20 * 5 * 256 << 10)
	if st.SysWriteBytes != wantWrites {
		t.Fatalf("SysWriteBytes = %d, want exactly %d (no migration)", st.SysWriteBytes, wantWrites)
	}
	if st.SysReadBytes != 0 {
		t.Fatalf("SysReadBytes = %d, want 0", st.SysReadBytes)
	}
}

func TestFTLRemoveCausesGCMigration(t *testing.T) {
	// Counterpart: interleaved files on the FTL share erase blocks, so
	// deleting one forces GC to migrate the survivor's pages eventually.
	dev := testDevice(t, 16)
	ftl, _ := ssd.NewFTL(dev, 10*64)
	fs := NewFTLFS(ftl)
	// Interleave two files page by page so every block holds both.
	wa, _ := fs.Create("a")
	wb, _ := fs.Create("b")
	page := make([]byte, 4096)
	for i := 0; i < 5*64; i++ {
		wa.Append(page)
		wb.Append(page)
	}
	wa.Close()
	wb.Close()
	// Churn: delete and recreate "a" repeatedly. "b" pages keep getting
	// dragged along by GC.
	for r := 0; r < 6; r++ {
		fs.Remove("a")
		w, _ := fs.Create("a")
		for i := 0; i < 5*64; i++ {
			w.Append(page)
		}
		w.Close()
		fs.Remove("a")
		w2, err := fs.Create("a")
		if err != nil {
			t.Fatal(err)
		}
		w2.Close()
		fs.Remove("a")
	}
	if ftl.Stats().MigratedPages == 0 {
		t.Fatal("expected GC migration for interleaved files on FTL")
	}
}

func TestFTLSpaceExhausted(t *testing.T) {
	dev := testDevice(t, 8)
	ftl, _ := ssd.NewFTL(dev, 2*64)
	fs := NewFTLFS(ftl)
	w, _ := fs.Create("f")
	_, _, err := w.Append(make([]byte, 3*256<<10))
	if !errors.Is(err, ErrSpaceExhausted) {
		t.Fatalf("want ErrSpaceExhausted, got %v", err)
	}
}

func TestFTLLPNReuseAfterRemove(t *testing.T) {
	dev := testDevice(t, 8)
	ftl, _ := ssd.NewFTL(dev, 2*64)
	fs := NewFTLFS(ftl)
	for i := 0; i < 10; i++ {
		w, _ := fs.Create("f")
		if _, _, err := w.Append(make([]byte, 256<<10)); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		w.Close()
		if _, err := fs.Remove("f"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestUsedBytesCountsPaddedTail(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		w, _ := fs.Create("p")
		w.Append([]byte("x")) // 1 byte -> 1 physical page once padded
		if got := fs.UsedBytes(); got != 4096 {
			t.Fatalf("UsedBytes = %d, want 4096", got)
		}
		w.Close()
		if got := fs.UsedBytes(); got != 4096 {
			t.Fatalf("UsedBytes after close = %d, want 4096", got)
		}
	})
}

// TestAppendProgramsWholePagesTailAtClose pins the durability contract:
// Append programs every page it fills, and the partial tail page
// reaches flash only when Close pads it.
func TestAppendProgramsWholePagesTailAtClose(t *testing.T) {
	eachFS(t, func(t *testing.T, fs FS) {
		w, _ := fs.Create("s")
		w.Append(make([]byte, 4096+100))
		if got := fs.Device().Stats().SysWriteBytes; got != 4096 {
			t.Fatalf("after Append SysWriteBytes = %d, want 4096: the whole page and not the tail", got)
		}
		w.Close() // pads the 100-byte tail
		if got := fs.Device().Stats().SysWriteBytes; got != 8192 {
			t.Fatalf("after Close SysWriteBytes = %d, want 8192", got)
		}
	})
}

// Property: any sequence of appends round-trips through both backends at
// arbitrary read offsets.
func TestQuickAppendReadRoundTrip(t *testing.T) {
	for _, backend := range []string{"native", "ftl"} {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			quickRoundTrip(t, backend)
		})
	}
}

func quickRoundTrip(t *testing.T, backend string) {
	f := func(chunks [][]byte, seed int64) bool {
		dev, _ := ssd.NewDevice(ssd.Config{
			PageSize: 512, PagesPerBlock: 8, Blocks: 256,
			Latency: ssd.LatencyModel{PageRead: 1, PageWrite: 1, BlockErase: 1, Channels: 1},
		})
		var fs FS
		if backend == "native" {
			fs = NewNativeFS(dev)
		} else {
			ftl, err := ssd.NewFTL(dev, 200*8)
			if err != nil {
				return false
			}
			fs = NewFTLFS(ftl)
		}
		w, _ := fs.Create("f")
		var all []byte
		for _, c := range chunks {
			if len(all)+len(c) > 64<<10 {
				break
			}
			w.Append(c)
			all = append(all, c...)
		}
		w.Close()
		if len(all) == 0 {
			return true
		}
		r, _ := fs.Open("f")
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			off := rng.Intn(len(all))
			n := rng.Intn(len(all)-off) + 1
			buf := make([]byte, n)
			got, _, err := r.ReadAt(buf, int64(off))
			if err != nil || got != n || !bytes.Equal(buf, all[off:off+n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
