// Package blockfs provides a minimal append-only file layer over the SSD
// simulator. Storage engines see named files with byte offsets; the two
// backends differ in how bytes map to flash:
//
//   - NativeFS allocates whole erase blocks per file through the device's
//     native interface (paper §2.3 "Block-aligned files"). Deleting a
//     file erases exactly its own blocks, so no valid data is ever
//     migrated: zero hardware write amplification. QinDB stores its AOFs
//     here.
//   - FTLFS maps file pages onto a conventional page-mapped FTL. Deleting
//     a file merely trims its logical pages; the invalidated flash pages
//     are reclaimed later by device GC, which migrates whatever valid
//     data shares their blocks. The LSM baseline lives here.
//
// Both backends implement FS, so the engines are backend-agnostic. Files
// are strictly append-only (matching both AOFs and SSTables); at most one
// writer may be open per file, and reads may run concurrently with the
// writer, observing all appended bytes including the unflushed tail.
// Every operation returns its simulated device cost so engines can build
// latency histograms.
package blockfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"directload/internal/ssd"
)

// Filesystem errors.
var (
	ErrExists     = errors.New("blockfs: file exists")
	ErrNotFound   = errors.New("blockfs: file not found")
	ErrWriterOpen = errors.New("blockfs: file has an open writer")
	ErrClosed     = errors.New("blockfs: writer closed")
	ErrOffset     = errors.New("blockfs: offset out of range")
)

// FS is an append-only filesystem over simulated flash.
type FS interface {
	// Create opens a new file for appending. The name must be unused.
	Create(name string) (Writer, error)
	// Open returns a read handle. The file may still be being written.
	Open(name string) (Reader, error)
	// Remove deletes the file, releasing its flash space. The file must
	// not have an open writer.
	Remove(name string) (time.Duration, error)
	// Size returns the logical length of a file in bytes.
	Size(name string) (int64, error)
	// List returns all file names in lexicographic order.
	List() []string
	// UsedBytes returns the physical flash space currently occupied by
	// all files (full pages, including final-page padding).
	UsedBytes() int64
	// Device returns the underlying flash device (for stats and clock).
	Device() *ssd.Device
}

// Writer appends bytes to a file.
type Writer interface {
	// Append writes p at the end of the file, returning the byte offset
	// at which p begins and the simulated device cost. Complete pages go
	// to flash before it returns; it keeps no reference to p.
	Append(p []byte) (off int64, cost time.Duration, err error)
	// Close flushes everything including a padded final page and
	// releases the writer slot.
	Close() (time.Duration, error)
	// Offset returns the current logical end of the file.
	Offset() int64
}

// Reader reads bytes from a file at arbitrary offsets.
type Reader interface {
	// ReadAt fills p from logical offset off, returning the bytes read
	// and the simulated device cost; it allocates nothing. Reads that
	// extend past the end of the file return the available prefix and no
	// error; a read entirely past the end returns ErrOffset.
	ReadAt(p []byte, off int64) (n int, cost time.Duration, err error)
	// Size returns the logical file length at call time.
	Size() int64
}

// file is the shared per-file bookkeeping for both backends. pages holds
// backend-specific physical page references — append-only, so a reader
// may keep a sub-slice of it past the lock; length counts appended logical
// bytes; tail is the open partial page, bytes not yet on flash.
type file struct {
	pages   []int32 // backend page refs: native = block*ppb+page, ftl = lpn
	length  int64
	tail    []byte // one page of capacity; len < pageSize unless the device refused a page
	writing bool
}

// core implements the name table and read path common to both backends.
type core struct {
	mu       sync.Mutex
	files    map[string]*file
	pageSize int
	dev      *ssd.Device

	// readPage copies the page at ref, from byte inPage on, into dst.
	readPage func(ref int32, inPage int, dst []byte) (int, time.Duration, error)
	// writePage programs one whole page as the file's next. Runs with mu held.
	writePage func(f *file, page []byte) (time.Duration, error)
	freeFile  func(f *file) (time.Duration, error)
}

func (c *core) Device() *ssd.Device { return c.dev }

func (c *core) Create(name string) (Writer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	f := &file{writing: true, tail: make([]byte, 0, c.pageSize)}
	c.files[name] = f
	return &writer{c: c, f: f, name: name}, nil
}

func (c *core) Open(name string) (Reader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return &reader{c: c, f: f}, nil
}

func (c *core) Remove(name string) (time.Duration, error) {
	c.mu.Lock()
	f, ok := c.files[name]
	if !ok {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if f.writing {
		c.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrWriterOpen, name)
	}
	delete(c.files, name)
	c.mu.Unlock()
	// freeFile touches only this dead file's refs; no lock needed.
	return c.freeFile(f)
}

func (c *core) Size(name string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.files[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return f.length, nil
}

func (c *core) List() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.files))
	for n := range c.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c *core) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, f := range c.files {
		total += int64(len(f.pages)) * int64(c.pageSize)
		if len(f.tail) > 0 {
			total += int64(c.pageSize) // tail will occupy one page
		}
	}
	return total
}

type writer struct {
	mu     sync.Mutex
	c      *core
	f      *file
	name   string
	closed bool
}

// Append tops up the open partial page, programs every whole page
// straight from p, and keeps what is left over — less than a page — in
// the tail. All of p is in the file when it returns, error or not: the
// pages the device refused wait in the tail, which grows past a page to
// hold them, and the next Append or Close programs them first. A
// record is therefore never torn by a refusal, only late.
func (w *writer) Append(p []byte) (int64, time.Duration, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, 0, ErrClosed
	}
	c, f := w.c, w.f
	c.mu.Lock()
	defer c.mu.Unlock()
	off := f.length
	f.length += int64(len(p))
	cost, err := c.flushFullTail(f) // pages refused earlier, if any
	if err == nil && len(f.tail) > 0 {
		n := copy(f.tail[len(f.tail):c.pageSize], p)
		f.tail = f.tail[:len(f.tail)+n]
		p = p[n:]
		var oc time.Duration
		oc, err = c.flushFullTail(f)
		cost += oc
	}
	for err == nil && len(p) >= c.pageSize {
		var oc time.Duration
		oc, err = c.writePage(f, p[:c.pageSize])
		cost += oc
		if err == nil {
			p = p[c.pageSize:]
		}
	}
	f.tail = append(f.tail, p...)
	return off, cost, err
}

// flushFullTail programs the whole pages in the tail — one when it has just
// filled, more after a refusal — and moves what is left to its front. Runs
// with mu held.
func (c *core) flushFullTail(f *file) (time.Duration, error) {
	var cost time.Duration
	var err error
	done := 0
	for err == nil && len(f.tail)-done >= c.pageSize {
		var oc time.Duration
		oc, err = c.writePage(f, f.tail[done:done+c.pageSize])
		cost += oc
		if err == nil {
			done += c.pageSize
		}
	}
	if done > 0 {
		f.tail = f.tail[:copy(f.tail, f.tail[done:])]
	}
	return cost, err
}

func (w *writer) Close() (time.Duration, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	w.closed = true
	c, f := w.c, w.f
	c.mu.Lock()
	defer c.mu.Unlock()
	cost, err := c.flushFullTail(f)
	if err == nil && len(f.tail) > 0 {
		// Pad the final partial page onto flash, in place. The padding is
		// physical only: length keeps counting appended bytes.
		page := f.tail[:c.pageSize]
		clear(page[len(f.tail):])
		var c2 time.Duration
		c2, err = c.writePage(f, page)
		cost += c2
	}
	if err == nil {
		f.tail = nil
	}
	f.writing = false
	return cost, err
}

func (w *writer) Offset() int64 {
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	return w.f.length
}

type reader struct {
	c *core
	f *file
}

func (r *reader) Size() int64 {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	return r.f.length
}

func (r *reader) ReadAt(p []byte, off int64) (int, time.Duration, error) {
	c := r.c
	c.mu.Lock()
	length := r.f.length
	if off < 0 || off > length {
		c.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: off %d, len %d", ErrOffset, off, length)
	}
	if off == length && len(p) > 0 {
		c.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: off %d at end of file", ErrOffset, off)
	}
	want := min(int64(len(p)), length-off)
	// Take the page refs and the tail bytes under the lock; device reads
	// happen outside it so concurrent appends aren't blocked by flash
	// latency. The refs are a view, not a copy: pages is append-only, so
	// the elements below its length never change. The tail page is the
	// writer's to reuse, so what this read wants of it goes into p now —
	// from memory, at no device cost.
	flushed := int64(len(r.f.pages)) * int64(c.pageSize)
	onFlash := want // bytes of the read that lie in flushed pages
	if end := off + want; end > flushed {
		from := max(off, flushed)
		copy(p[from-off:want], r.f.tail[from-flushed:end-flushed])
		onFlash = from - off
	}
	var refs []int32
	firstPage := off / int64(c.pageSize)
	if onFlash > 0 {
		refs = r.f.pages[firstPage : (off+onFlash-1)/int64(c.pageSize)+1]
	}
	c.mu.Unlock()

	var cost time.Duration
	for n := 0; n < int(onFlash); {
		cur := off + int64(n)
		got, oc, err := c.readPage(refs[cur/int64(c.pageSize)-firstPage], int(cur%int64(c.pageSize)), p[n:onFlash])
		cost += oc
		if err != nil {
			return n, cost, err
		}
		n += got
	}
	return int(want), cost, nil
}
