// Package blockfstest decorates a blockfs.FS with hooks, so that a test
// can park or fail one chosen flash operation of the engine above it.
package blockfstest

import (
	"time"

	"directload/internal/blockfs"
)

// FS passes every call through to the FS it wraps, running the hooks
// that are set first. The hooks are fixed when the FS is built; one that
// acts only some of the time consults state the test synchronises.
type FS struct {
	blockfs.FS
	// ReadAt runs before every Reader.ReadAt, on the reading goroutine:
	// a hook that blocks parks the read.
	ReadAt func(name string, off int64)
	// Flip runs after every Reader.ReadAt on the bytes it read, p[0] being
	// the file's byte off: a hook that changes one is a bit flipped on
	// flash under the read.
	Flip func(name string, off int64, p []byte)
	// Append runs before every Writer.Append; a non-nil error is returned
	// in place of appending.
	Append func(name string, p []byte) error
	// Sync runs before every Writer.Sync and Writer.Close; a non-nil
	// error is returned in place of flushing.
	Sync func(name string) error
}

func (f *FS) Create(name string) (blockfs.Writer, error) {
	w, err := f.FS.Create(name)
	if err != nil || (f.Append == nil && f.Sync == nil) {
		return w, err
	}
	return writer{w, f, name}, nil
}

func (f *FS) Open(name string) (blockfs.Reader, error) {
	r, err := f.FS.Open(name)
	if err != nil || (f.ReadAt == nil && f.Flip == nil) {
		return r, err
	}
	return reader{r, f, name}, nil
}

type writer struct {
	blockfs.Writer
	fs   *FS
	name string
}

func (w writer) Append(p []byte) (int64, time.Duration, error) {
	if w.fs.Append != nil {
		if err := w.fs.Append(w.name, p); err != nil {
			return 0, 0, err
		}
	}
	return w.Writer.Append(p)
}

func (w writer) Sync() (time.Duration, error)  { return w.flush(w.Writer.Sync) }
func (w writer) Close() (time.Duration, error) { return w.flush(w.Writer.Close) }

func (w writer) flush(next func() (time.Duration, error)) (time.Duration, error) {
	if w.fs.Sync != nil {
		if err := w.fs.Sync(w.name); err != nil {
			return 0, err
		}
	}
	return next()
}

type reader struct {
	blockfs.Reader
	fs   *FS
	name string
}

func (r reader) ReadAt(p []byte, off int64) (int, time.Duration, error) {
	if r.fs.ReadAt != nil {
		r.fs.ReadAt(r.name, off)
	}
	n, cost, err := r.Reader.ReadAt(p, off)
	if r.fs.Flip != nil {
		r.fs.Flip(r.name, off, p[:n])
	}
	return n, cost, err
}
