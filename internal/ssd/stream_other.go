//go:build !amd64 || race

package ssd

// copyPage copies a full page, src into dst. The streaming copy is an
// amd64 kernel (stream_amd64.s); elsewhere, and under the race detector,
// which must see every write, the plain copy does.
func copyPage(dst, src []byte) { copy(dst, src) }
