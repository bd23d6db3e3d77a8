// Package blockfs is a fixture standing in for the storage layer: its
// Close/Flush errors surface buffered write failures.
package blockfs

type Writer struct{}

func (w *Writer) Close() error { return nil }
func (w *Writer) Flush() error { return nil }
func (w *Writer) Name() string { return "" }
func (w *Writer) Reset()       {}
