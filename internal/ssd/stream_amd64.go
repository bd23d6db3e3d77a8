//go:build !race

package ssd

import "unsafe"

// copyPage copies a full page, src into dst (of the same length), with
// non-temporal stores: on a real SSD a page program is a DMA that never
// passes the CPU's cache, and a copy that allocates the page in the cache
// evicts what the engine reads next. A page whose length or destination
// the kernel does not handle takes the plain copy. The race detector does
// not see the kernel's stores, so a -race build takes the plain copy
// always (stream_other.go).
func copyPage(dst, src []byte) {
	if len(dst) == 0 || len(dst)%64 != 0 || uintptr(unsafe.Pointer(&dst[0]))%16 != 0 {
		copy(dst, src)
		return
	}
	streamCopy(&dst[0], &src[0], len(dst))
}

// streamCopy copies n bytes, a multiple of 64, from src to dst, which is
// 16-byte aligned, with non-temporal stores, and fences them.
//
//go:noescape
func streamCopy(dst, src *byte, n int)
