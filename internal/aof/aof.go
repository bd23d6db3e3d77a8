// Package aof implements QinDB's on-flash layout: a set of fixed-size
// append-only files (AOFs, paper §2.3) holding length-prefixed,
// checksummed key-value records, plus the in-memory GC table that tracks
// per-file occupancy for the lazy garbage collection policy.
//
// The store is policy-free about liveness: the engine (internal/core)
// owns the memtable and therefore knows which records are referenced. A GC
// pass reads only the records the engine names as able to survive their
// file, and asks it through callbacks which to keep. What lives here is
// the mechanics the paper describes: append records to the active file,
// rotate at the size limit, maintain the occupancy ratio table, and —
// when a file's occupancy falls below the threshold — re-append the
// records the engine wants kept and erase the file (steps 3–6 of paper
// Fig. 2). Recovery alone scans a file whole.
package aof

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"directload/internal/blockfs"
	"directload/internal/metrics"
)

// Record flags.
const (
	// FlagDedup marks a record whose value was removed by Bifrost
	// deduplication: the value field is NULL and readers must trace back
	// to an older version for the payload (paper Fig. 2, GET).
	FlagDedup uint8 = 1 << iota
	// FlagTombstone marks a deletion record, written so that DEL
	// operations survive crash recovery (the memtable delete flag alone
	// lives only in memory).
	FlagTombstone
	// FlagDropped marks a record whose key/version had already been
	// deleted when garbage collection relocated it (kept only because a
	// newer deduplicated version still refers to its value). Recovery
	// replays it with the delete flag set.
	FlagDropped
	// FlagVersionDrop marks a meta-record (empty key) recording that a
	// whole data version was dropped by the retention policy; recovery
	// replays the bulk delete.
	FlagVersionDrop
)

// Record is one key-value entry as stored in an AOF. Seq is assigned by
// the store at append time and increases monotonically across the whole
// store lifetime; recovery replays records in Seq order so that the
// jumbled physical order left behind by GC relocation cannot reorder
// logically-later operations before earlier ones.
type Record struct {
	Seq     uint64
	Key     []byte
	Version uint64
	Flags   uint8
	Value   []byte
}

// IsDedup reports whether the value field was removed by deduplication.
func (r Record) IsDedup() bool { return r.Flags&FlagDedup != 0 }

// IsTombstone reports whether this is a deletion record.
func (r Record) IsTombstone() bool { return r.Flags&FlagTombstone != 0 }

// IsDropped reports whether the record was relocated after deletion.
func (r Record) IsDropped() bool { return r.Flags&FlagDropped != 0 }

// IsVersionDrop reports whether this is a version-retention meta-record.
func (r Record) IsVersionDrop() bool { return r.Flags&FlagVersionDrop != 0 }

// Ref locates a record on flash.
type Ref struct {
	File uint32 // AOF file id
	Off  int64  // byte offset of the record header within the file
	Len  uint32 // total encoded length
}

// Zero is the zero Ref, used as "no location".
var Zero Ref

// Store errors.
var (
	ErrCorrupt = errors.New("aof: corrupt record")
	ErrNoFile  = errors.New("aof: unknown file")
)

// record wire format:
//
//	crc      uint32   // over everything after this field
//	seq      uint64
//	version  uint64
//	flags    uint8
//	keyLen   uint16
//	valLen   uint32
//	key      [keyLen]byte
//	value    [valLen]byte
const headerSize = 4 + 8 + 8 + 1 + 2 + 4

// MaxKeyLen is the longest key the record format can hold: keyLen is a
// uint16. AppendRecord truncates the length of anything longer, so the engine
// refuses such keys before they reach the store.
const MaxKeyLen = math.MaxUint16

// MaxValueLen is the longest value the engine stores and the wire
// carries. valLen is a uint32, so the format could hold more; the limit
// bounds what one record may cost a reader's buffer.
const MaxValueLen = 64 << 20

// EncodedLen returns the on-flash size of a record.
func EncodedLen(keyLen, valLen int) int { return headerSize + keyLen + valLen }

// AppendRecord appends the encoding of rec to dst and returns the extended
// slice; with capacity to spare in dst it allocates nothing.
func AppendRecord(dst []byte, rec Record) []byte {
	at := len(dst)
	dst = slices.Grow(dst, EncodedLen(len(rec.Key), len(rec.Value)))
	buf := dst[at : at+headerSize]
	binary.LittleEndian.PutUint64(buf[4:], rec.Seq)
	binary.LittleEndian.PutUint64(buf[12:], rec.Version)
	buf[20] = rec.Flags
	binary.LittleEndian.PutUint16(buf[21:], uint16(len(rec.Key)))
	binary.LittleEndian.PutUint32(buf[23:], uint32(len(rec.Value)))
	dst = append(append(dst[:at+headerSize], rec.Key...), rec.Value...)
	binary.LittleEndian.PutUint32(dst[at:], crc32.ChecksumIEEE(dst[at+4:]))
	return dst
}

// recordLen returns the encoded length the header at the start of buf
// declares; ok is false when buf is too short to hold a header.
func recordLen(buf []byte) (total int, ok bool) {
	if len(buf) < headerSize {
		return 0, false
	}
	keyLen := int(binary.LittleEndian.Uint16(buf[21:]))
	valLen := int(binary.LittleEndian.Uint32(buf[23:]))
	return headerSize + keyLen + valLen, true
}

// DecodeView parses one record from buf, checksum verified, returning it
// and the encoded length. Key and Value alias buf: they are valid only
// while buf is, and a caller that keeps either copies it.
func DecodeView(buf []byte) (Record, int, error) {
	total, ok := recordLen(buf)
	if !ok {
		return Record{}, 0, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(buf))
	}
	if len(buf) < total {
		return Record{}, 0, fmt.Errorf("%w: short body (%d < %d)", ErrCorrupt, len(buf), total)
	}
	if crc32.ChecksumIEEE(buf[4:total]) != binary.LittleEndian.Uint32(buf) {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	keyLen := int(binary.LittleEndian.Uint16(buf[21:]))
	rec := Record{
		Seq:     binary.LittleEndian.Uint64(buf[4:]),
		Version: binary.LittleEndian.Uint64(buf[12:]),
		Flags:   buf[20],
	}
	if keyLen > 0 {
		rec.Key = buf[headerSize : headerSize+keyLen : headerSize+keyLen]
	}
	if headerSize+keyLen < total {
		rec.Value = buf[headerSize+keyLen : total : total]
	}
	return rec, total, nil
}

// Config controls the store geometry and GC policy.
type Config struct {
	// FileSize is the AOF rotation size; the paper fixes it at 64 MB.
	FileSize int64
	// GCThreshold is the occupancy ratio at or below which a sealed file
	// becomes a GC candidate; the paper uses 0.25.
	GCThreshold float64
	// MinFreeBytes: when the filesystem's free space falls below this,
	// the engine collects the emptiest sealed files even above
	// GCThreshold (PressureCandidate). Zero disables the pressure
	// override.
	MinFreeBytes int64
	// Metrics, when non-nil, receives the store's `aof.*` metrics
	// (appends, rotations, fsyncs, GC activity). Nil keeps the store
	// uninstrumented at zero cost.
	Metrics *metrics.Registry
}

// DefaultConfig matches the paper: 64 MB AOFs, 25 % occupancy threshold.
func DefaultConfig() Config {
	return Config{FileSize: 64 << 20, GCThreshold: 0.25}
}

type fileInfo struct {
	r     blockfs.Reader // opened with the file, dropped with it; set before the file is published
	total int64          // bytes of records appended
	live  int64          // bytes of records still referenced
	seal  bool           // no longer the active file
}

// Store is the AOF set plus the GC table.
type Store struct {
	mu  sync.Mutex
	fs  blockfs.FS
	cfg Config
	// files is the file table, copied on write under mu (setFileLocked),
	// so that a read finds its file's reader without mu. The counters in
	// a fileInfo are mu's.
	files  atomic.Pointer[map[uint32]*fileInfo]
	nextID uint32
	active uint32
	writer blockfs.Writer

	seq uint64 // next sequence number to assign

	// scratch is the one buffer records are encoded into (appendLocked):
	// mu is held from encode to the end of the append, and blockfs keeps
	// nothing of what it is handed.
	scratch []byte
	// gcBuf and gcRecs are a GC pass's read buffer and the records
	// decoded from it (readChunk), kept from pass to pass. Only
	// CollectFile uses them, and its caller runs one pass at a time.
	gcBuf  []byte
	gcRecs []Record

	met storeMetrics
}

// storeMetrics holds the store's registry handles. Without a registry
// they stay nil, and the metric types' nil-receiver no-ops keep the
// append path allocation-free, except the four that Stats reads: those
// are private cells then, so each number is kept once either way.
type storeMetrics struct {
	appends     *metrics.Counter
	appendBytes *metrics.Counter // lifetime record bytes appended (incl. GC re-appends)
	rotations   *metrics.Counter
	fsyncs      *metrics.Counter
	reads       *metrics.Counter
	files       *metrics.Gauge
	gcCollects  *metrics.Counter
	gcMoved     *metrics.Counter // bytes re-appended by GC
	gcFreed     *metrics.Counter // record bytes in files erased by GC
}

func newStoreMetrics(reg *metrics.Registry) storeMetrics {
	m := storeMetrics{
		appends:     reg.Counter("aof.appends"),
		appendBytes: reg.Counter("aof.append.bytes"),
		rotations:   reg.Counter("aof.rotations"),
		fsyncs:      reg.Counter("aof.fsyncs"),
		reads:       reg.Counter("aof.reads"),
		files:       reg.Gauge("aof.files"),
		gcCollects:  reg.Counter("aof.gc.collects"),
		gcMoved:     reg.Counter("aof.gc.moved_bytes"),
		gcFreed:     reg.Counter("aof.gc.freed_bytes"),
	}
	if reg == nil {
		m.appendBytes = new(metrics.Counter)
		m.gcCollects = new(metrics.Counter)
		m.gcMoved = new(metrics.Counter)
		m.gcFreed = new(metrics.Counter)
	}
	return m
}

// filename formats the AOF file name for id.
func filename(id uint32) string { return fmt.Sprintf("aof-%08d", id) }

// parseFilename returns the id encoded in an AOF name.
func parseFilename(name string) (uint32, bool) {
	var id uint32
	if _, err := fmt.Sscanf(name, "aof-%08d", &id); err != nil {
		return 0, false
	}
	return id, true
}

// Open creates a store over fs. If AOF files already exist (recovery),
// they are registered sealed with zero live bytes; the engine's recovery
// scan re-marks live records via MarkLive.
func Open(fs blockfs.FS, cfg Config) (*Store, error) {
	if cfg.FileSize <= 0 {
		return nil, errors.New("aof: non-positive file size")
	}
	if cfg.GCThreshold < 0 || cfg.GCThreshold > 1 {
		return nil, errors.New("aof: GC threshold must be in [0, 1]")
	}
	s := &Store{fs: fs, cfg: cfg, met: newStoreMetrics(cfg.Metrics)}
	files := make(map[uint32]*fileInfo)
	for _, name := range fs.List() {
		id, ok := parseFilename(name)
		if !ok {
			continue
		}
		r, err := fs.Open(name)
		if err != nil {
			return nil, err
		}
		files[id] = &fileInfo{r: r, total: r.Size(), seal: true}
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	s.files.Store(&files)
	s.met.files.Set(int64(len(files)))
	return s, nil
}

// table returns the file table as last published.
func (s *Store) table() map[uint32]*fileInfo { return *s.files.Load() }

// setFileLocked publishes a copy of the file table with id mapped to fi,
// or without id when fi is nil.
func (s *Store) setFileLocked(id uint32, fi *fileInfo) {
	files := maps.Clone(s.table())
	if fi == nil {
		delete(files, id)
	} else {
		files[id] = fi
	}
	s.files.Store(&files)
	s.met.files.Set(int64(len(files)))
}

// rotateLocked seals the active file and opens a fresh one.
func (s *Store) rotateLocked() error {
	if s.writer != nil {
		if _, err := s.writer.Close(); err != nil {
			return err
		}
		s.table()[s.active].seal = true
		s.writer = nil
	}
	id := s.nextID
	w, err := s.fs.Create(filename(id))
	if err != nil {
		return err
	}
	s.nextID++
	r, err := s.fs.Open(filename(id))
	if err != nil {
		_, _ = w.Close() // the Open error is the one to report
		return err
	}
	s.active = id
	s.writer = w
	s.setFileLocked(id, &fileInfo{r: r})
	s.met.rotations.Inc()
	return nil
}

// Append writes rec to the active AOF, rotating first if it would exceed
// the file size limit. The record starts live. The store assigns the
// record's sequence number; the caller's Seq field is ignored. The
// assigned value is returned so the engine can track recovery floors.
func (s *Store) Append(rec Record) (Ref, uint64, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec.Seq = s.seq
	s.seq++
	ref, _, cost, err := s.appendLocked(rec)
	return ref, rec.Seq, cost, err
}

// SeqFloor raises the next sequence number to at least floor. The engine
// calls this after a recovery scan so new appends sort after everything
// already on flash.
func (s *Store) SeqFloor(floor uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if floor > s.seq {
		s.seq = floor
	}
}

// KeepBuffer is the largest buffer the data path holds on to for reuse —
// the store's encode scratch and GC read buffer here, a connection's
// recycled frames, reply bodies and GET scratch above: one that has grown
// past it is left to the garbage collector. The largest buffer the
// paper's traffic makes is the frame of a 64-entry publish batch of 16-24
// KB values, 1.3-1.5 MB: 2 MB keeps that one, and an outsized value is
// not remembered for the life of whatever served it.
const KeepBuffer = 2 << 20

// appendLocked encodes rec into the store's scratch buffer and appends it
// to the active file, rotating first if it would exceed the size limit. It
// returns the record's location and encoded length.
func (s *Store) appendLocked(rec Record) (Ref, int64, time.Duration, error) {
	buf := AppendRecord(s.scratch[:0], rec)
	if cap(buf) <= KeepBuffer {
		s.scratch = buf
	}
	if s.writer == nil || s.writer.Offset()+int64(len(buf)) > s.cfg.FileSize {
		if err := s.rotateLocked(); err != nil {
			return Zero, 0, 0, err
		}
	}
	off, cost, err := s.writer.Append(buf)
	if err != nil {
		return Zero, 0, cost, err
	}
	fi := s.table()[s.active]
	fi.total += int64(len(buf))
	fi.live += int64(len(buf))
	s.met.appends.Inc()
	s.met.appendBytes.Add(int64(len(buf)))
	return Ref{File: s.active, Off: off, Len: uint32(len(buf))}, int64(len(buf)), cost, nil
}

// readInto reads the record at ref into buf, which is ref.Len long, and
// returns it decoded in place, checksum verified: Key and Value are views
// of buf. It reads through the file's kept reader, taking no lock here.
func (s *Store) readInto(buf []byte, ref Ref) (Record, time.Duration, error) {
	s.met.reads.Inc()
	fi := s.table()[ref.File]
	if fi == nil {
		return Record{}, 0, fmt.Errorf("%w: %d", ErrNoFile, ref.File)
	}
	n, cost, err := fi.r.ReadAt(buf, ref.Off)
	if err != nil {
		return Record{}, cost, err
	}
	rec, _, err := DecodeView(buf[:n])
	return rec, cost, err
}

// Read fetches and decodes the record at ref into one buffer of its own,
// which the caller owns: Key and Value are views of it.
func (s *Store) Read(ref Ref) (Record, time.Duration, error) {
	return s.readInto(make([]byte, ref.Len), ref)
}

// ReadAppend appends the value of the record at ref to dst and returns
// the extended slice. The record is read into dst's spare capacity and
// verified there; only then does the value move down over header and key.
// A dst that falls short grows as append would grow it, so a buffer being
// reused stops growing as value sizes vary. On an error, and for an empty
// value, the dst given is what comes back: a nil dst comes back nil.
func (s *Store) ReadAppend(dst []byte, ref Ref) ([]byte, time.Duration, error) {
	given, at := dst, len(dst)
	dst = slices.Grow(dst, int(ref.Len))
	buf := dst[at : at+int(ref.Len)]
	rec, cost, err := s.readInto(buf, ref)
	if err != nil || len(rec.Value) == 0 {
		return given, cost, err
	}
	return dst[:at+copy(buf, rec.Value)], cost, nil
}

// MarkDead records that the record at ref is no longer referenced,
// updating the GC table's occupancy ratio (paper Fig. 2, DEL step 2).
func (s *Store) MarkDead(ref Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fi, ok := s.table()[ref.File]; ok {
		fi.live -= int64(ref.Len)
		if fi.live < 0 {
			fi.live = 0
		}
	}
}

// MarkLive re-registers a referenced record during recovery scans.
func (s *Store) MarkLive(ref Ref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fi, ok := s.table()[ref.File]; ok {
		fi.live += int64(ref.Len)
		if fi.live > fi.total {
			fi.live = fi.total
		}
	}
}

// Sync flushes the active writer's complete pages.
func (s *Store) Sync() (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer == nil {
		return 0, nil
	}
	s.met.fsyncs.Inc()
	return s.writer.Sync()
}

// Close seals the active file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writer == nil {
		return nil
	}
	_, err := s.writer.Close()
	s.table()[s.active].seal = true
	s.writer = nil
	return err
}

// Files returns the ids of all AOF files in ascending order.
func (s *Store) Files() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint32, 0, len(s.table()))
	for id := range s.table() {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Stats summarizes store and GC state.
type Stats struct {
	Files         int
	TotalBytes    int64 // sum of record bytes across files
	LiveBytes     int64
	DiskBytes     int64 // physical flash occupied (page-padded)
	AppendedBytes int64 // lifetime record bytes appended (incl. GC re-appends)
	GCRuns        int64
	GCMoved       int64 // bytes re-appended during GC
	GCFreed       int64 // record bytes in files erased by GC
}

// Stats returns current statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	files := s.table()
	st := Stats{Files: len(files), AppendedBytes: s.met.appendBytes.Load(),
		GCRuns: s.met.gcCollects.Load(), GCMoved: s.met.gcMoved.Load(), GCFreed: s.met.gcFreed.Load()}
	for _, fi := range files {
		st.TotalBytes += fi.total
		st.LiveBytes += fi.live
	}
	st.DiskBytes = s.fs.UsedBytes()
	return st
}

// scanPiece is how much of a file a scan reads at a time.
const scanPiece = 1 << 20

// scanner walks the records of one file in append order, reading the
// file piece by piece. A record that straddles the end of a piece is
// carried over and completed by the next read — the buffer has room for a
// piece and the most a piece can leave over — and a record larger than
// that grows the buffer to hold it.
type scanner struct {
	id   uint32
	r    blockfs.Reader
	size int64
	buf  []byte // file bytes [off, off+len(buf)); buf[:p] are consumed
	off  int64
	p    int
}

func (s *Store) newScanner(id uint32) (*scanner, error) {
	r, err := s.fs.Open(filename(id))
	if err != nil {
		return nil, err
	}
	size := r.Size()
	return &scanner{id: id, r: r, size: size, buf: make([]byte, 0, min(size, 2*scanPiece))}, nil
}

// buffered reports whether the record at the cursor lies whole in the
// buffer, so that next returns it without reading flash.
func (sc *scanner) buffered() bool {
	total, ok := recordLen(sc.buf[sc.p:])
	return ok && total <= len(sc.buf)-sc.p
}

// refill moves the unconsumed bytes to the front of the buffer and reads
// on from where the last read ended: one piece, or the rest of the record
// at the cursor when that is longer. It reports whether the file had
// more to give.
func (sc *scanner) refill() (bool, error) {
	rest := sc.buf[sc.p:]
	n := int64(scanPiece)
	if total, ok := recordLen(rest); ok && int64(total-len(rest)) > n {
		n = int64(total - len(rest))
	}
	from := sc.off + int64(len(sc.buf))
	n = min(n, sc.size-from)
	if n <= 0 {
		return false, nil
	}
	sc.off += int64(sc.p)
	sc.p = 0
	if need := len(rest) + int(n); need > cap(sc.buf) {
		sc.buf = append(make([]byte, 0, max(need, 2*cap(sc.buf))), rest...)
	} else {
		sc.buf = sc.buf[:copy(sc.buf, rest)]
	}
	got, _, err := sc.r.ReadAt(sc.buf[len(sc.buf):len(sc.buf)+int(n)], from)
	sc.buf = sc.buf[:len(sc.buf)+got]
	return got > 0, err
}

// next returns the record at the cursor as a view (see DecodeView) that
// stays valid until a later call reads flash, which next does only when
// buffered is false. ok is false at the end of the file.
func (sc *scanner) next() (rec Record, ref Ref, ok bool, err error) {
	at := sc.off + int64(sc.p)
	if at >= sc.size {
		return Record{}, Zero, false, nil
	}
	for !sc.buffered() {
		more, err := sc.refill()
		if err != nil {
			return Record{}, Zero, false, err
		}
		if !more {
			break // the file ends inside this record; DecodeView says how
		}
	}
	rec, n, err := DecodeView(sc.buf[sc.p:])
	if err != nil {
		return Record{}, Zero, false, fmt.Errorf("file %d offset %d: %w", sc.id, at, err)
	}
	sc.p += n
	return rec, Ref{File: sc.id, Off: at, Len: uint32(n)}, true, nil
}

// ScanFile iterates the records of one file in append order, checksum
// verified, stopping if fn returns an error. The record's Key and Value
// are views into the scan buffer, valid during the call: fn copies what
// it keeps. Used for recovery.
func (s *Store) ScanFile(id uint32, fn func(rec Record, ref Ref) error) error {
	sc, err := s.newScanner(id)
	if err != nil {
		return err
	}
	for {
		rec, ref, ok, err := sc.next()
		if err != nil || !ok {
			return err
		}
		if err := fn(rec, ref); err != nil {
			return err
		}
	}
}

// Kept is the list of records a GC pass keeps, ascending by offset: the
// current target of a memtable item, an older version still reachable
// through dedup traceback (paper: "invalid key-value pairs that are
// referred by later version keys"), or a deletion record recovery still
// needs. It is the engine's own list, read and updated by position, so
// the engine keeps what it knows of each record beside its ref and finds
// nothing again by key.
type Kept interface {
	Len() int
	// At returns where the i-th record lies, and whether its copy is to
	// carry FlagDropped: a deletion folded into a record kept only for
	// its later readers, so that it survives recovery without its
	// tombstone.
	At(i int) (ref Ref, dropped bool)
	// Moved tells the engine that the i-th record now lies at new, so it
	// can update its memtable (paper Fig. 2, GC step 5).
	Moved(i int, new Ref)
}

// Candidates returns sealed files whose occupancy is at or below the GC
// threshold, lowest occupancy first and, among equals (typically the
// fully dead files a DropVersion leaves), lowest file id first — so
// identical runs collect in the same order.
func (s *Store) Candidates() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	files := s.table()
	occ := func(id uint32) float64 { return float64(files[id].live) / float64(files[id].total) }
	var ids []uint32
	for id, fi := range files {
		if fi.seal && fi.total > 0 && occ(id) <= s.cfg.GCThreshold {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, func(a, b uint32) int { return cmp.Or(cmp.Compare(occ(a), occ(b)), cmp.Compare(a, b)) })
	return ids
}

// One hold of the engine lock during a pass re-appends at most GCChunk
// records, which together, past the first, come to at most gcHoldBytes:
// a few hundred microseconds of encoding and appending. The records of a
// hold are read, and their checksums verified, before it is taken.
const (
	GCChunk     = 128
	gcHoldBytes = 128 << 10
)

// CollectFile garbage-collects one file: every record of keep is
// re-appended to the active AOF, the engine is told its new location,
// and the file is erased. No other byte of the file is read: the
// memtable already knows every record GC keeps. It returns the simulated
// device cost. The re-appends are the software-level write amplification
// QinDB pays (paper: "up to 2.5x ... as QinDB has to re-append valid
// data of deleted files in the GC process").
//
// The caller guarantees that nothing else appends to, marks or collects
// in the store for the length of the call. lk is the lock that keeps the
// engine's readers out: CollectFile reads a chunk of records (adjacent
// ones in one read, through the file's kept reader, into a buffer the
// store keeps between passes) and verifies their checksums without it,
// holds it while it re-appends the chunk and calls Moved, and holds it
// once more to erase the victim, after every kept record has been
// re-pointed: a reader that resolved a ref into the victim under its side
// of lk finishes its read before the file goes. If the pass fails midway
// the victim stays, alongside the copies already made: the state a crash
// at that point leaves, which recovery resolves by sequence number.
func (s *Store) CollectFile(id uint32, keep Kept, lk sync.Locker) (time.Duration, error) {
	s.mu.Lock()
	fi, ok := s.table()[id]
	if !ok {
		s.mu.Unlock()
		return 0, fmt.Errorf("%w: %d", ErrNoFile, id)
	}
	if !fi.seal {
		s.mu.Unlock()
		return 0, fmt.Errorf("aof: file %d is active", id)
	}
	total := fi.total
	s.mu.Unlock()

	var cost time.Duration
	var moved int64
	for at, end := 0, keep.Len(); at < end; {
		ref, _ := keep.At(at)
		n, size := 1, int(ref.Len)
		for ; at+n < end && n < GCChunk; n++ {
			ref, _ := keep.At(at + n)
			if size+int(ref.Len) > gcHoldBytes {
				break
			}
			size += int(ref.Len)
		}
		recs, c, err := s.readChunk(fi.r, keep, at, n, size)
		cost += c
		if err != nil {
			return cost, fmt.Errorf("file %d: %w", id, err)
		}
		lk.Lock()
		for i := range recs {
			if _, dropped := keep.At(at + i); dropped {
				recs[i].Flags |= FlagDropped
			}
			newRef, l, c, err := s.relocate(recs[i])
			cost += c
			if err != nil {
				lk.Unlock()
				return cost, err
			}
			moved += l
			keep.Moved(at+i, newRef)
		}
		lk.Unlock()
		at += n
	}

	lk.Lock()
	c, err := s.fs.Remove(filename(id))
	cost += c
	if err != nil {
		lk.Unlock()
		return cost, err
	}
	s.mu.Lock()
	s.setFileLocked(id, nil)
	s.met.gcCollects.Inc()
	s.met.gcMoved.Add(moved)
	s.met.gcFreed.Add(total)
	s.mu.Unlock()
	lk.Unlock()
	return cost, nil
}

// readChunk reads the n records of keep from position at on, size bytes
// in all, into the store's GC buffer — each run of adjacent records in
// one read — and decodes them, checksums verified. The records are views
// of the buffer, valid until the next call.
func (s *Store) readChunk(r blockfs.Reader, keep Kept, at, n, size int) ([]Record, time.Duration, error) {
	buf := slices.Grow(s.gcBuf[:0], size)[:size]
	if size <= KeepBuffer {
		s.gcBuf = buf
	}
	var cost time.Duration
	for i, done := at, 0; i < at+n; {
		ref, _ := keep.At(i)
		off, end := ref.Off, done+int(ref.Len)
		for i++; i < at+n; i++ {
			next, _ := keep.At(i)
			if next.Off != ref.Off+int64(ref.Len) {
				break
			}
			ref = next
			end += int(ref.Len)
		}
		got, c, err := r.ReadAt(buf[done:end], off)
		cost += c
		if err != nil {
			return nil, cost, err
		}
		if got < end-done { // the rest of buf holds an earlier chunk's bytes
			return nil, cost, fmt.Errorf("%w: offset %d: file ends %d bytes into a %d-byte read", ErrCorrupt, off, got, end-done)
		}
		done = end
	}
	recs := s.gcRecs[:0]
	for i := at; i < at+n; i++ {
		ref, _ := keep.At(i)
		rec, _, err := DecodeView(buf[:ref.Len])
		if err != nil {
			return nil, cost, fmt.Errorf("offset %d: %w", ref.Off, err)
		}
		recs = append(recs, rec)
		buf = buf[ref.Len:]
	}
	s.gcRecs = recs
	return recs, cost, nil
}

// relocate re-appends a record GC keeps, returning its new location and
// encoded length. Data records get a fresh sequence number: recovery
// relies on relocations sorting after a checkpoint's floor so it
// re-points checkpointed items. Tombstones and version-drop meta-records
// keep their ORIGINAL sequence: their deletion effect is
// position-dependent, and replaying one after a later revive of the same
// key/version would resurrect the deletion.
func (s *Store) relocate(rec Record) (Ref, int64, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !rec.IsTombstone() {
		rec.Seq = s.seq
		s.seq++
	}
	return s.appendLocked(rec)
}

// UnderPressure reports whether free flash space has dropped below the
// configured MinFreeBytes (always false when the override is disabled).
func (s *Store) UnderPressure() bool {
	if s.cfg.MinFreeBytes <= 0 {
		return false
	}
	free := s.fs.Device().Config().Capacity() - s.fs.UsedBytes()
	return free < s.cfg.MinFreeBytes
}

// PressureCandidate returns the sealed file with the lowest occupancy
// (the lowest file id among equals) — the victim to collect when space
// pressure overrides the lazy threshold. Files above 95% occupancy are
// not worth rewriting and are skipped.
func (s *Store) PressureCandidate() (uint32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := uint32(0)
	bestOcc := 0.95
	found := false
	for id, fi := range s.table() {
		if !fi.seal || fi.total == 0 {
			continue
		}
		occ := float64(fi.live) / float64(fi.total)
		if occ < bestOcc || (found && occ == bestOcc && id < best) {
			best, bestOcc, found = id, occ, true
		}
	}
	return best, found
}
