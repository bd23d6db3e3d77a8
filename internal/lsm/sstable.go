// Package lsm implements the LevelDB-style log-structured merge-tree
// storage engine that the paper uses as its baseline ("LevelDB 1.9.0
// running with the default configurations"). It is a from-scratch,
// self-contained engine over the same simulated flash as QinDB:
//
//   - a skip-list memtable in front of a CRC-framed write-ahead log,
//   - immutable SSTables with data blocks, a sparse index and a bloom
//     filter,
//   - a leveled layout (L0..L6) with LevelDB's sizing rules: L0 compacts
//     by file count, deeper levels by total size with a 10x fan-out,
//   - background-free, inline leveled compaction (compaction work is
//     performed synchronously on the write path once thresholds trip,
//     which makes the write-amplification accounting deterministic).
//
// The engine exposes the same versioned-key surface as QinDB so the
// paper's experiments can run identical workloads against both. Keys are
// stored as key/version composites with version order descending.
//
// What matters for the reproduction is the I/O behaviour the paper
// measures: every memtable flush, every compaction read and write, and
// every stale-file delete flows through blockfs onto the simulated SSD,
// so software and hardware write amplification are both observable.
package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"directload/internal/blockfs"
)

// SSTable format:
//
//	data block 0 | data block 1 | ... | filter block | index block | footer
//
// Each data block holds consecutive entries:
//
//	keyLen uint16 | version uint64 | kind uint8 | valLen uint32 | key | value
//
// The index block maps the last composite key of each data block to its
// (offset, length). The footer locates index and filter blocks:
//
//	indexOff uint64 | indexLen uint32 | filterOff uint64 | filterLen uint32 |
//	entryCount uint32 | crc uint32 (over index+filter) | magic uint64
const (
	sstMagic        = 0x51494E44424C534D // "QINDBLSM"
	footerSize      = 8 + 4 + 8 + 4 + 4 + 4 + 8
	targetBlockSize = 4096
)

// Entry kinds.
const (
	kindValue     uint8 = 1
	kindTombstone uint8 = 2
	kindDedup     uint8 = 3 // value removed by Bifrost deduplication
)

// ErrSSTCorrupt reports a malformed SSTable.
var ErrSSTCorrupt = errors.New("lsm: corrupt sstable")

// ikey is the composite (user key, version) with version descending, so a
// seek to (k, MaxUint64) lands on the newest entry of k.
type ikey struct {
	key string
	ver uint64
}

func ikeyLess(a, b ikey) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.ver > b.ver // newer first
}

func ikeyCompare(a, b ikey) int {
	switch {
	case ikeyLess(a, b):
		return -1
	case ikeyLess(b, a):
		return 1
	default:
		return 0
	}
}

// entry is one key-value pair flowing through the engine.
type entry struct {
	ik    ikey
	kind  uint8
	value []byte
}

func encodeEntry(buf []byte, e entry) []byte {
	var hdr [15]byte
	binary.LittleEndian.PutUint16(hdr[0:], uint16(len(e.ik.key)))
	binary.LittleEndian.PutUint64(hdr[2:], e.ik.ver)
	hdr[10] = e.kind
	binary.LittleEndian.PutUint32(hdr[11:], uint32(len(e.value)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, e.ik.key...)
	buf = append(buf, e.value...)
	return buf
}

func decodeEntry(buf []byte) (entry, int, error) {
	if len(buf) < 15 {
		return entry{}, 0, fmt.Errorf("%w: short entry header", ErrSSTCorrupt)
	}
	klen := int(binary.LittleEndian.Uint16(buf[0:]))
	ver := binary.LittleEndian.Uint64(buf[2:])
	kind := buf[10]
	vlen := int(binary.LittleEndian.Uint32(buf[11:]))
	total := 15 + klen + vlen
	if len(buf) < total {
		return entry{}, 0, fmt.Errorf("%w: short entry body", ErrSSTCorrupt)
	}
	e := entry{
		ik:   ikey{key: string(buf[15 : 15+klen]), ver: ver},
		kind: kind,
	}
	if vlen > 0 {
		e.value = append([]byte(nil), buf[15+klen:total]...)
	}
	return e, total, nil
}

// tableMeta describes one SSTable resident in a level.
type tableMeta struct {
	num      uint64 // file number
	size     int64
	smallest ikey
	largest  ikey
	entries  int
}

func tableName(num uint64) string { return fmt.Sprintf("sst-%010d", num) }

// indexEntry locates one data block.
type indexEntry struct {
	last ikey // last composite key in the block
	off  uint64
	len  uint32
}

// tableWriter streams sorted entries into an SSTable file.
type tableWriter struct {
	fs      blockfs.FS
	w       blockfs.Writer
	meta    tableMeta
	block   []byte
	index   []indexEntry
	filter  *bloomBuilder
	lastIK  ikey
	started bool
	dataOff uint64
}

func newTableWriter(fs blockfs.FS, num uint64) (*tableWriter, error) {
	w, err := fs.Create(tableName(num))
	if err != nil {
		return nil, err
	}
	return &tableWriter{
		fs:     fs,
		w:      w,
		meta:   tableMeta{num: num},
		filter: newBloomBuilder(10),
	}, nil
}

// add appends an entry; entries must arrive in strictly increasing
// composite-key order.
func (tw *tableWriter) add(e entry) error {
	if tw.started && !ikeyLess(tw.lastIK, e.ik) {
		return fmt.Errorf("lsm: out-of-order add: %v after %v", e.ik, tw.lastIK)
	}
	if !tw.started {
		tw.meta.smallest = e.ik
		tw.started = true
	}
	tw.lastIK = e.ik
	tw.meta.largest = e.ik
	tw.meta.entries++
	tw.filter.add(e.ik.key)
	tw.block = encodeEntry(tw.block, e)
	if len(tw.block) >= targetBlockSize {
		return tw.flushBlock()
	}
	return nil
}

func (tw *tableWriter) flushBlock() error {
	if len(tw.block) == 0 {
		return nil
	}
	off, _, err := tw.w.Append(tw.block)
	if err != nil {
		return err
	}
	tw.index = append(tw.index, indexEntry{last: tw.lastIK, off: uint64(off), len: uint32(len(tw.block))})
	tw.dataOff = uint64(off) + uint64(len(tw.block))
	tw.block = tw.block[:0]
	return nil
}

// finish writes filter, index and footer, closes the file and returns the
// table metadata.
func (tw *tableWriter) finish() (tableMeta, error) {
	if err := tw.flushBlock(); err != nil {
		return tableMeta{}, err
	}
	filter := tw.filter.build()
	filterOff, _, err := tw.w.Append(filter)
	if err != nil {
		return tableMeta{}, err
	}
	var index []byte
	for _, ie := range tw.index {
		var hdr [26]byte
		binary.LittleEndian.PutUint16(hdr[0:], uint16(len(ie.last.key)))
		binary.LittleEndian.PutUint64(hdr[2:], ie.last.ver)
		binary.LittleEndian.PutUint64(hdr[10:], ie.off)
		binary.LittleEndian.PutUint32(hdr[18:], ie.len)
		binary.LittleEndian.PutUint32(hdr[22:], 0) // reserved
		index = append(index, hdr[:]...)
		index = append(index, ie.last.key...)
	}
	indexOff, _, err := tw.w.Append(index)
	if err != nil {
		return tableMeta{}, err
	}
	crc := crc32.ChecksumIEEE(index)
	crc = crc32.Update(crc, crc32.IEEETable, filter)
	footer := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(footer[0:], uint64(indexOff))
	binary.LittleEndian.PutUint32(footer[8:], uint32(len(index)))
	binary.LittleEndian.PutUint64(footer[12:], uint64(filterOff))
	binary.LittleEndian.PutUint32(footer[20:], uint32(len(filter)))
	binary.LittleEndian.PutUint32(footer[24:], uint32(tw.meta.entries))
	binary.LittleEndian.PutUint32(footer[28:], crc)
	binary.LittleEndian.PutUint64(footer[32:], sstMagic)
	if _, _, err := tw.w.Append(footer); err != nil {
		return tableMeta{}, err
	}
	if _, err := tw.w.Close(); err != nil {
		return tableMeta{}, err
	}
	size, err := tw.fs.Size(tableName(tw.meta.num))
	if err != nil {
		return tableMeta{}, err
	}
	tw.meta.size = size
	return tw.meta, nil
}

// abandon closes and removes a partially written table after an error.
// The write already failed; its error wins, so teardown errors are
// discarded deliberately.
func (tw *tableWriter) abandon() {
	_, _ = tw.w.Close()
	tw.fs.Remove(tableName(tw.meta.num))
}

// tableReader reads an SSTable: sparse index + bloom filter are loaded
// once; data blocks are fetched on demand (each fetch advances the device
// clock, which is where LevelDB's read tail latency comes from).
type tableReader struct {
	fs     blockfs.FS
	meta   tableMeta
	r      blockfs.Reader
	index  []indexEntry
	filter bloomFilter
	cache  *blockCache // shared LRU data-block cache (may be nil)
}

// openTable loads the table's index and filter into memory.
func openTable(fs blockfs.FS, meta tableMeta) (*tableReader, error) {
	r, err := fs.Open(tableName(meta.num))
	if err != nil {
		return nil, err
	}
	size := r.Size()
	if size < footerSize {
		return nil, fmt.Errorf("%w: too small", ErrSSTCorrupt)
	}
	footer := make([]byte, footerSize)
	if _, _, err := r.ReadAt(footer, size-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[32:]) != sstMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSSTCorrupt)
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:])
	indexLen := binary.LittleEndian.Uint32(footer[8:])
	filterOff := binary.LittleEndian.Uint64(footer[12:])
	filterLen := binary.LittleEndian.Uint32(footer[20:])
	wantCRC := binary.LittleEndian.Uint32(footer[28:])

	indexBuf := make([]byte, indexLen)
	if indexLen > 0 {
		if _, _, err := r.ReadAt(indexBuf, int64(indexOff)); err != nil {
			return nil, err
		}
	}
	filterBuf := make([]byte, filterLen)
	if filterLen > 0 {
		if _, _, err := r.ReadAt(filterBuf, int64(filterOff)); err != nil {
			return nil, err
		}
	}
	crc := crc32.ChecksumIEEE(indexBuf)
	crc = crc32.Update(crc, crc32.IEEETable, filterBuf)
	if crc != wantCRC {
		return nil, fmt.Errorf("%w: index/filter checksum", ErrSSTCorrupt)
	}

	tr := &tableReader{fs: fs, meta: meta, r: r, filter: bloomFilter(filterBuf)}
	for p := 0; p < len(indexBuf); {
		if p+26 > len(indexBuf) {
			return nil, fmt.Errorf("%w: short index entry", ErrSSTCorrupt)
		}
		klen := int(binary.LittleEndian.Uint16(indexBuf[p:]))
		ie := indexEntry{
			last: ikey{ver: binary.LittleEndian.Uint64(indexBuf[p+2:])},
			off:  binary.LittleEndian.Uint64(indexBuf[p+10:]),
			len:  binary.LittleEndian.Uint32(indexBuf[p+18:]),
		}
		p += 26
		if p+klen > len(indexBuf) {
			return nil, fmt.Errorf("%w: short index key", ErrSSTCorrupt)
		}
		ie.last.key = string(indexBuf[p : p+klen])
		p += klen
		tr.index = append(tr.index, ie)
	}
	return tr, nil
}

// get searches the table for the exact composite key.
func (tr *tableReader) get(ik ikey) ([]byte, uint8, bool, error) {
	if !tr.filter.mayContain(ik.key) {
		return nil, 0, false, nil
	}
	// Binary search the sparse index for the first block whose last key
	// is >= ik.
	lo, hi := 0, len(tr.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if ikeyLess(tr.index[mid].last, ik) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(tr.index) {
		return nil, 0, false, nil
	}
	block, err := tr.readBlockCached(tr.index[lo])
	if err != nil {
		return nil, 0, false, err
	}
	for p := 0; p < len(block); {
		e, n, err := decodeEntry(block[p:])
		if err != nil {
			return nil, 0, false, err
		}
		p += n
		if c := ikeyCompare(e.ik, ik); c == 0 {
			return e.value, e.kind, true, nil
		} else if c > 0 {
			break
		}
	}
	return nil, 0, false, nil
}

func (tr *tableReader) readBlock(ie indexEntry) ([]byte, error) {
	buf := make([]byte, ie.len)
	_, _, err := tr.r.ReadAt(buf, int64(ie.off))
	return buf, err
}

// readBlockCached consults the shared block cache first; a cached block
// reads no flash. Iteration (compaction, range scans) bypasses the
// cache to avoid evicting the hot read set, matching LevelDB.
func (tr *tableReader) readBlockCached(ie indexEntry) ([]byte, error) {
	key := cacheKey{table: tr.meta.num, off: ie.off}
	if data, ok := tr.cache.get(key); ok {
		return data, nil
	}
	data, err := tr.readBlock(ie)
	if err == nil {
		tr.cache.put(key, data)
	}
	return data, err
}

// iter returns a sorted iterator over the whole table (used by
// compaction and range scans).
func (tr *tableReader) iter() *tableIter {
	return &tableIter{tr: tr, blockIdx: -1}
}

// tableIter iterates a table in composite-key order.
type tableIter struct {
	tr       *tableReader
	blockIdx int
	block    []byte
	pos      int
	cur      entry
	valid    bool
	err      error
}

func (it *tableIter) next() bool {
	for {
		if it.block != nil && it.pos < len(it.block) {
			e, n, err := decodeEntry(it.block[it.pos:])
			if err != nil {
				it.err = err
				it.valid = false
				return false
			}
			it.pos += n
			it.cur = e
			it.valid = true
			return true
		}
		it.blockIdx++
		if it.blockIdx >= len(it.tr.index) {
			it.valid = false
			return false
		}
		block, err := it.tr.readBlock(it.tr.index[it.blockIdx])
		if err != nil {
			it.err = err
			it.valid = false
			return false
		}
		it.block = block
		it.pos = 0
	}
}

// seek positions the iterator at the first entry >= ik.
func (it *tableIter) seek(ik ikey) bool {
	lo, hi := 0, len(it.tr.index)
	for lo < hi {
		mid := (lo + hi) / 2
		if ikeyLess(it.tr.index[mid].last, ik) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(it.tr.index) {
		it.valid = false
		return false
	}
	it.blockIdx = lo - 1 // next() will load block lo
	it.block = nil
	it.pos = 0
	for it.next() {
		if !ikeyLess(it.cur.ik, ik) {
			return true
		}
	}
	return false
}

// bloomBuilder builds a simple split bloom filter with k derived hashes.
type bloomBuilder struct {
	keys       [][]byte
	bitsPerKey int
}

func newBloomBuilder(bitsPerKey int) *bloomBuilder {
	return &bloomBuilder{bitsPerKey: bitsPerKey}
}

func (b *bloomBuilder) add(key string) {
	b.keys = append(b.keys, []byte(key))
}

func (b *bloomBuilder) build() []byte {
	n := len(b.keys)
	bits := n * b.bitsPerKey
	if bits < 64 {
		bits = 64
	}
	nbytes := (bits + 7) / 8
	bits = nbytes * 8
	k := uint32(float64(b.bitsPerKey) * 0.69)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	out := make([]byte, nbytes+1)
	out[nbytes] = byte(k)
	for _, key := range b.keys {
		h := bloomHash(key)
		delta := h>>17 | h<<15
		for i := uint32(0); i < k; i++ {
			pos := h % uint32(bits)
			out[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return out
}

type bloomFilter []byte

func (f bloomFilter) mayContain(key string) bool {
	if len(f) < 2 {
		return true // no filter: cannot exclude
	}
	k := uint32(f[len(f)-1])
	if k > 30 {
		return true
	}
	bits := uint32((len(f) - 1) * 8)
	h := bloomHash([]byte(key))
	delta := h>>17 | h<<15
	for i := uint32(0); i < k; i++ {
		pos := h % bits
		if f[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// bloomHash is LevelDB's 32-bit Murmur-like hash.
func bloomHash(data []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(data))*m
	for ; len(data) >= 4; data = data[4:] {
		h += binary.LittleEndian.Uint32(data)
		h *= m
		h ^= h >> 16
	}
	switch len(data) {
	case 3:
		h += uint32(data[2]) << 16
		fallthrough
	case 2:
		h += uint32(data[1]) << 8
		fallthrough
	case 1:
		h += uint32(data[0])
		h *= m
		h ^= h >> 24
	}
	return h
}

// overlaps reports whether the table's key range intersects [smallest,
// largest] of another range (by user key, version-insensitive).
func (m tableMeta) overlaps(lo, hi string) bool {
	return !(m.largest.key < lo || (hi != "" && m.smallest.key > hi))
}
