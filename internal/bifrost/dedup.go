// Package bifrost implements the index delivery subsystem of DirectLoad
// (paper §2.2): cross-version deduplication by signature comparison,
// slice packing with end-to-end checksums, a three-region relay topology
// over the netsim fabric, bandwidth-reserved stream scheduling, hop-wise
// integrity verification with retransmission, and the delivery
// bookkeeping behind the paper's update-time and miss-ratio figures.
package bifrost

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"sync"
)

// Signature is the per-value fingerprint compared across versions.
// FNV-128a is collision-safe at web scale for our simulation purposes and
// costs no allocations to compare.
type Signature [16]byte

// Sign fingerprints a value.
func Sign(value []byte) Signature {
	h := fnv.New128a()
	h.Write(value)
	var sig Signature
	h.Sum(sig[:0])
	return sig
}

// DedupStats summarizes a deduper's effect. The paper reports ~70% of
// index entries unchanged between versions and 63% of update bandwidth
// saved.
type DedupStats struct {
	Keys        int64 // entries seen this version
	DedupKeys   int64 // entries whose value matched the previous version
	Bytes       int64 // value bytes seen this version
	DedupBytes  int64 // value bytes elided
	TotalKeys   int64 // lifetime counters
	TotalDedup  int64
	TotalBytes  int64
	TotalElided int64
}

// KeyRatio returns the fraction of entries deduplicated this version.
func (s DedupStats) KeyRatio() float64 {
	if s.Keys == 0 {
		return 0
	}
	return float64(s.DedupKeys) / float64(s.Keys)
}

// ByteRatio returns the fraction of value bytes elided this version —
// the bandwidth saving of Fig. 9.
func (s DedupStats) ByteRatio() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.DedupBytes) / float64(s.Bytes)
}

// Deduper removes redundant values between consecutive index versions by
// comparing signatures (paper §2.2: "Only if the signature differs, a
// key-value pair is forwarded to the network transmission, otherwise the
// value field will be removed before delivery").
type Deduper struct {
	mu   sync.Mutex
	prev map[string]Signature // signatures of the previous version
	cur  map[string]Signature // signatures being accumulated
	s    DedupStats
}

// NewDeduper returns an empty deduper: the first version is never
// deduplicated (there is nothing to compare against).
func NewDeduper() *Deduper {
	return &Deduper{
		prev: make(map[string]Signature),
		cur:  make(map[string]Signature),
	}
}

// Process decides the fate of one key-value pair in the current version:
// it returns true when the value is identical to the previous version's
// and must be stripped before transmission.
func (d *Deduper) Process(key, value []byte) bool {
	sig := Sign(value)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cur[string(key)] = sig
	d.s.Keys++
	d.s.TotalKeys++
	d.s.Bytes += int64(len(value))
	d.s.TotalBytes += int64(len(value))
	if old, ok := d.prev[string(key)]; ok && old == sig {
		d.s.DedupKeys++
		d.s.TotalDedup++
		d.s.DedupBytes += int64(len(value))
		d.s.TotalElided += int64(len(value))
		return true
	}
	return false
}

// AdvanceVersion seals the current version: its signatures become the
// comparison base for the next one, and the per-version counters reset.
func (d *Deduper) AdvanceVersion() DedupStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.s
	d.prev = d.cur
	d.cur = make(map[string]Signature, len(d.prev))
	d.s.Keys, d.s.DedupKeys, d.s.Bytes, d.s.DedupBytes = 0, 0, 0, 0
	return out
}

// Stats returns a snapshot of the counters.
func (d *Deduper) Stats() DedupStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.s
}

// --- slices ---------------------------------------------------------------

// StreamType tags the two index streams the paper ships with reserved
// bandwidth shares (40% summary / 60% inverted).
type StreamType int

// Stream types.
const (
	StreamSummary StreamType = iota
	StreamInverted
)

func (t StreamType) String() string {
	if t == StreamSummary {
		return "summary"
	}
	return "inverted"
}

// Record is one index entry inside a slice.
type Record struct {
	Key     []byte
	Version uint64
	Value   []byte
	Dedup   bool // value stripped by the deduper
}

// wireSize is the record's contribution to slice bytes on the network.
func (r Record) wireSize() int64 {
	return int64(len(r.Key) + len(r.Value) + 16)
}

// Slice is the transmission unit: index data are shipped as slices and
// every intermediate node re-verifies the slice checksum (paper §3,
// "Failures in Transmission").
type Slice struct {
	Version  uint64
	Stream   StreamType
	Seq      int
	Records  []Record
	Checksum uint32
	corrupt  bool // simulated in-flight corruption
}

// Size returns the slice's wire size in bytes.
func (s *Slice) Size() int64 {
	var total int64
	for _, r := range s.Records {
		total += r.wireSize()
	}
	return total + 64 // header
}

// Seal computes and stores the checksum over the slice content.
func (s *Slice) Seal() {
	s.Checksum = s.computeChecksum()
}

func (s *Slice) computeChecksum() uint32 {
	crc := crc32.ChecksumIEEE(nil)
	var hdr [13]byte
	for _, r := range s.Records {
		binary.LittleEndian.PutUint64(hdr[0:], r.Version)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(r.Key)))
		if r.Dedup {
			hdr[12] = 1
		} else {
			hdr[12] = 0
		}
		crc = crc32.Update(crc, crc32.IEEETable, hdr[:])
		crc = crc32.Update(crc, crc32.IEEETable, r.Key)
		crc = crc32.Update(crc, crc32.IEEETable, r.Value)
	}
	return crc
}

// Verify recomputes the checksum; a corrupted slice fails.
func (s *Slice) Verify() bool {
	if s.corrupt {
		return false
	}
	return s.computeChecksum() == s.Checksum
}

// Corrupt marks the slice as damaged in flight (failure injection).
func (s *Slice) Corrupt() { s.corrupt = true }

// Repair clears injected damage, modelling a clean retransmission.
func (s *Slice) Repair() { s.corrupt = false }

// SliceBuilder packs records into bounded slices.
type SliceBuilder struct {
	version uint64
	stream  StreamType
	limit   int64
	seq     int
	cur     *Slice
	curSize int64
	out     []*Slice
}

// NewSliceBuilder creates a builder producing slices of at most limit
// bytes for the given stream and version.
func NewSliceBuilder(version uint64, stream StreamType, limit int64) *SliceBuilder {
	if limit <= 0 {
		limit = 4 << 20
	}
	return &SliceBuilder{version: version, stream: stream, limit: limit}
}

// Add appends one record, starting a new slice when the current one is
// full.
func (b *SliceBuilder) Add(r Record) {
	if b.cur != nil && b.curSize+r.wireSize() > b.limit && len(b.cur.Records) > 0 {
		b.finishCurrent()
	}
	if b.cur == nil {
		b.cur = &Slice{Version: b.version, Stream: b.stream, Seq: b.seq}
		b.seq++
		b.curSize = 64
	}
	b.cur.Records = append(b.cur.Records, r)
	b.curSize += r.wireSize()
}

func (b *SliceBuilder) finishCurrent() {
	b.cur.Seal()
	b.out = append(b.out, b.cur)
	b.cur = nil
	b.curSize = 0
}

// Finish seals any partial slice and returns all slices built.
func (b *SliceBuilder) Finish() []*Slice {
	if b.cur != nil && len(b.cur.Records) > 0 {
		b.finishCurrent()
	}
	out := b.out
	b.out = nil
	return out
}
