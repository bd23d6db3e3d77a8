package search

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// DefaultChunkSize is how many segment bytes ride in one engine value.
// Segments are chunked so a web-scale index does not need one giant
// value: each chunk is an ordinary versioned engine entry, so the
// engine's dedup, replication and version-retention machinery apply
// unchanged.
const DefaultChunkSize = 64 << 10

// metaMagic brands a serialized IndexMeta.
var metaMagic = []byte("DLSM")

// Engine is the minimal versioned KV surface the search store needs.
// Get must be an exact-version lookup (the core engine's contract), so
// a snapshot pinned to version N never observes version N+1's writes.
type Engine interface {
	Put(key string, version uint64, value []byte) error
	Get(key string, version uint64) ([]byte, error)
}

// MetaKey returns the engine key of an index's per-version metadata.
func MetaKey(name string) string { return "!idx/" + name + "/meta" }

// ChunkKey returns the engine key of one segment chunk.
func ChunkKey(name string, i int) string { return fmt.Sprintf("!idx/%s/seg/%06d", name, i) }

// Pair is one (key, value) an index publish writes; SegmentPairs
// returns them so a fleet caller (`qindbctl index build -nodes`) can
// publish through its own replication path instead of the Engine
// interface.
type Pair struct {
	Key   string
	Value []byte
}

// IndexMeta is the per-version index descriptor stored under MetaKey.
// It seals the chunk list: a reader fetches the meta at its pinned
// version and knows exactly which chunks, how many bytes, and what
// checksum to expect.
type IndexMeta struct {
	Chunks   int
	Bytes    int
	Checksum uint32 // CRC-32 (IEEE) of the whole segment
}

// Encode serializes the meta record.
func (m IndexMeta) Encode() []byte {
	buf := append([]byte(nil), metaMagic...)
	buf = binary.AppendUvarint(buf, uint64(m.Chunks))
	buf = binary.AppendUvarint(buf, uint64(m.Bytes))
	buf = binary.AppendUvarint(buf, uint64(m.Checksum))
	return buf
}

// DecodeIndexMeta parses a meta record.
func DecodeIndexMeta(data []byte) (IndexMeta, error) {
	r := &segReader{b: data}
	magic, err := r.bytes(len(metaMagic))
	if err != nil || string(magic) != string(metaMagic) {
		return IndexMeta{}, fmt.Errorf("%w: bad meta magic", ErrBadSegment)
	}
	chunks, err := r.uvarint()
	if err != nil {
		return IndexMeta{}, err
	}
	bytes, err := r.uvarint()
	if err != nil {
		return IndexMeta{}, err
	}
	sum, err := r.uvarint()
	if err != nil {
		return IndexMeta{}, err
	}
	if r.remaining() != 0 {
		return IndexMeta{}, fmt.Errorf("%w: %d trailing meta bytes", ErrBadSegment, r.remaining())
	}
	if chunks > 1<<31 || bytes > 1<<40 || sum > 1<<32-1 {
		return IndexMeta{}, fmt.Errorf("%w: meta fields out of range", ErrBadSegment)
	}
	return IndexMeta{Chunks: int(chunks), Bytes: int(bytes), Checksum: uint32(sum)}, nil
}

// SegmentPairs splits a segment into its publishable (key, value)
// entries: the chunk values followed by the sealing meta record. The
// chunk values alias seg.Bytes().
func SegmentPairs(name string, seg *Segment) []Pair {
	raw := seg.Bytes()
	var pairs []Pair
	for i := 0; i*DefaultChunkSize < len(raw) || i == 0; i++ {
		lo := i * DefaultChunkSize
		hi := lo + DefaultChunkSize
		if hi > len(raw) {
			hi = len(raw)
		}
		pairs = append(pairs, Pair{Key: ChunkKey(name, i), Value: raw[lo:hi]})
	}
	meta := IndexMeta{Chunks: len(pairs), Bytes: len(raw), Checksum: crc32.ChecksumIEEE(raw)}
	return append(pairs, Pair{Key: MetaKey(name), Value: meta.Encode()})
}

// WriteSegment publishes a segment to the engine at one version: all
// chunks first, the sealing meta record last, so a reader that can see
// the meta can see every chunk.
func WriteSegment(eng Engine, name string, version uint64, seg *Segment) error {
	w := NewSegmentWriter(eng, name, version)
	if _, err := w.Write(seg.Bytes()); err != nil {
		_ = w.Abort()
		return err
	}
	return w.Close()
}

// SegmentWriter streams serialized segment bytes into versioned engine
// chunks. Close flushes the final partial chunk and writes the sealing
// meta record — dropping the Close error loses the seal, so callers
// must check it (the errflow analyzer enforces this).
type SegmentWriter struct {
	eng     Engine
	name    string
	version uint64
	buf     []byte
	chunk   int
	n       int
	sum     uint32
	closed  bool
}

// NewSegmentWriter starts a chunked segment write at one version.
func NewSegmentWriter(eng Engine, name string, version uint64) *SegmentWriter {
	return &SegmentWriter{eng: eng, name: name, version: version, buf: make([]byte, 0, DefaultChunkSize)}
}

// Write appends segment bytes, flushing full chunks to the engine.
func (w *SegmentWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("search: write on closed SegmentWriter")
	}
	total := len(p)
	w.sum = crc32.Update(w.sum, crc32.IEEETable, p)
	w.n += total
	for len(p) > 0 {
		space := DefaultChunkSize - len(w.buf)
		if space > len(p) {
			space = len(p)
		}
		w.buf = append(w.buf, p[:space]...)
		p = p[space:]
		if len(w.buf) == DefaultChunkSize {
			if err := w.flush(); err != nil {
				return total - len(p), err
			}
		}
	}
	return total, nil
}

func (w *SegmentWriter) flush() error {
	if err := w.eng.Put(ChunkKey(w.name, w.chunk), w.version, w.buf); err != nil {
		return err
	}
	w.chunk++
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the tail chunk and seals the version with its meta
// record. The segment is not readable until Close returns nil.
func (w *SegmentWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if len(w.buf) > 0 || w.chunk == 0 {
		if err := w.flush(); err != nil {
			return err
		}
	}
	meta := IndexMeta{Chunks: w.chunk, Bytes: w.n, Checksum: w.sum}
	return w.eng.Put(MetaKey(w.name), w.version, meta.Encode())
}

// Abort abandons the write without sealing; already-written chunks
// stay as unreachable engine values (no meta points at them).
func (w *SegmentWriter) Abort() error {
	w.closed = true
	return nil
}

// LoadSegment reads the sealed segment at an exact version, verifying
// chunk count, byte count and checksum before the full decode.
func LoadSegment(eng Engine, name string, version uint64) (*Segment, IndexMeta, error) {
	mb, err := eng.Get(MetaKey(name), version)
	if err != nil {
		return nil, IndexMeta{}, fmt.Errorf("search: index %q version %d: %w", name, version, err)
	}
	meta, err := DecodeIndexMeta(mb)
	if err != nil {
		return nil, IndexMeta{}, err
	}
	raw := make([]byte, 0, meta.Bytes)
	for i := 0; i < meta.Chunks; i++ {
		chunk, err := eng.Get(ChunkKey(name, i), version)
		if err != nil {
			return nil, meta, fmt.Errorf("search: index %q version %d chunk %d: %w", name, version, i, err)
		}
		raw = append(raw, chunk...)
	}
	if len(raw) != meta.Bytes {
		return nil, meta, fmt.Errorf("%w: chunks total %d bytes, meta says %d", ErrBadSegment, len(raw), meta.Bytes)
	}
	if sum := crc32.ChecksumIEEE(raw); sum != meta.Checksum {
		return nil, meta, fmt.Errorf("%w: checksum %08x, meta says %08x", ErrBadSegment, sum, meta.Checksum)
	}
	seg, err := DecodeSegment(raw)
	if err != nil {
		return nil, meta, err
	}
	return seg, meta, nil
}

// MemEngine is an in-memory Engine for tests and the fleet-routed
// client path. Safe for concurrent use.
type MemEngine struct {
	mu sync.RWMutex
	m  map[string]map[uint64][]byte
}

// NewMemEngine returns an empty in-memory engine.
func NewMemEngine() *MemEngine {
	return &MemEngine{m: make(map[string]map[uint64][]byte)}
}

// Put stores an exact (key, version) value.
func (e *MemEngine) Put(key string, version uint64, value []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	vs := e.m[key]
	if vs == nil {
		vs = make(map[uint64][]byte)
		e.m[key] = vs
	}
	vs[version] = append([]byte(nil), value...)
	return nil
}

// Get returns the exact (key, version) value.
func (e *MemEngine) Get(key string, version uint64) ([]byte, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if v, ok := e.m[key][version]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("search: not found: %q/%d", key, version)
}

// Keys returns every stored key, sorted (test helper).
func (e *MemEngine) Keys() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.m))
	for k := range e.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
