// Package store is a fixture exercising both errflow rules from the
// consumer side.
package store

import (
	"errors"
	"os"

	"blockfs"
)

func drops(w *blockfs.Writer) {
	w.Close() // want `Close error dropped on the storage write path`
	w.Flush() // want `Flush error dropped on the storage write path`
	w.Name()  // no error to drop
	w.Reset() // no error to drop
}

func dropsFile(f *os.File) {
	f.Close() // want `Close error dropped on the storage write path`
}

func checked(w *blockfs.Writer) error {
	if err := w.Flush(); err != nil {
		return err
	}
	return w.Close()
}

func deferred(w *blockfs.Writer) {
	// Deferred closes are teardown idiom, not silent data loss.
	defer w.Close()
}

func discarded(w *blockfs.Writer) {
	// An explicit discard is a visible decision.
	_ = w.Close()
}

func suppressed(w *blockfs.Writer) {
	//lint:ignore errflow the write already failed on this path; its error wins
	w.Close()
}

func firstErrLoop(ws []*blockfs.Writer) error {
	var firstErr error
	for _, w := range ws {
		if err := w.Close(); err != nil && firstErr == nil {
			firstErr = err // want `loop keeps only the first error in firstErr; aggregate every replica failure with errors.Join`
		}
	}
	return firstErr
}

func joinedLoop(ws []*blockfs.Writer) error {
	var errs []error
	for _, w := range ws {
		if err := w.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func firstErrFor(ws []*blockfs.Writer) error {
	var firstErr error
	for i := 0; i < len(ws); i++ {
		if err := ws[i].Flush(); err != nil && firstErr == nil {
			firstErr = err // want `loop keeps only the first error in firstErr; aggregate every replica failure with errors.Join`
		}
	}
	return firstErr
}

func lastErrOutsideLoop(w *blockfs.Writer) error {
	// Outside a loop there is only one error; keeping it is fine.
	var retErr error
	if err := w.Close(); err != nil && retErr == nil {
		retErr = err
	}
	return retErr
}
