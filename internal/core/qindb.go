// Package core implements QinDB (Quick-Indexing Database), the paper's
// primary contribution (§2.3): the per-storage-node key-value engine that
// replaces an LSM-tree with a memory-resident table (memtable) of
// keys plus append-only files (AOFs) on SSD holding the values.
//
// Keys are versioned: every entry is addressed as (key, version), written
// as k/t in the paper. The engine mutates the classical GET/PUT/DEL
// operations so they work over deduplicated data (paper Fig. 2):
//
//   - PUT(k/t, v|NULL) appends the record to the AOF tail and inserts a
//     memtable item carrying the AOF offset, a flag r ("the value field
//     was removed by deduplication") and a flag d ("deleted").
//   - GET(k/t) looks the item up; when r is set it traces back to older
//     versions of k until a record with a real value is found.
//   - DEL(k/t) only sets d and updates the GC table's occupancy ratio;
//     space is reclaimed later by the lazy garbage collector.
//
// The paper's memtable is a skip list; here each version's items are a
// hash map, since nearly every operation is a point lookup of (k, t).
// Order is read by Range alone, which sorts the keys it lists in memory.
// Nothing is ever sorted on flash, so the only software write
// amplification left is the GC's re-append of still-referenced records.
// Stored on a block-aligned filesystem (blockfs.NativeFS), the engine
// also has zero hardware write amplification.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/metrics"
)

// Engine errors.
var (
	ErrNotFound    = errors.New("qindb: not found")
	ErrDeleted     = errors.New("qindb: deleted")
	ErrBrokenChain = errors.New("qindb: dedup chain has no base value")
	ErrClosed      = errors.New("qindb: closed")
	ErrEmptyKey    = errors.New("qindb: empty key")
	ErrKeyTooBig   = errors.New("qindb: key exceeds the record format's limit")
	ErrValueTooBig = errors.New("qindb: value exceeds limit")
)

// item flags in the memtable.
const (
	fDedup   uint8 = 1 << iota // r: value removed by deduplication
	fDeleted                   // d: logically deleted
	fHasBase                   // dedup item with a resolved traceback base
)

// item is the memtable payload: where the record lives on flash plus the
// r/d flags of paper Fig. 2. For deduplicated entries, base is the older
// version whose value this entry shares, and to is that version's item of
// the key. The binding is resolved once, at PUT time (the nearest older
// version of the key that still carries a value), so a GET follows one
// pointer and the result can never change under garbage collection. refs
// counts the live (not deleted) items bound to this one as their base; a
// base stays in the memtable while refs is above zero, so a live item's
// to is never stale. A record counts live in its file while its item is
// live or refs is above zero, and GC keeps exactly those: the last live
// referrer to go marks a deleted base's record dead.
type item struct {
	ref   aof.Ref
	base  uint64 // valid when fHasBase is set; the checkpoint writes it
	to    *item  // the base item of a live item with fHasBase, or nil
	refs  int32  // not checkpointed: recovery recounts it
	flags uint8
}

func (it *item) has(f uint8) bool { return it.flags&f != 0 }

// segment is one version's part of the memtable: its items keyed by user
// key, and how many of them are live. A retired segment reads as deleted,
// every item of it, without the items being flagged one by one; the
// flags are set only if a Put revives a key of the version (unretire).
// Keys are added and removed only with db.mu held exclusively, or in
// recovery. The map keeps no order: Range sorts what it lists.
type segment struct {
	ver     uint64
	items   map[string]*item
	live    int  // items not deleted: the version's key count
	retired bool // dropped whole by DropVersion
	// first is the oldest file any item was added with. A record moves
	// only to the active file, whose id is the highest, so no item's ref
	// lies in an older one.
	first uint32
}

func (s *segment) deleted(it *item) bool { return s.retired || it.has(fDeleted) }

// add puts it in the segment under key.
func (s *segment) add(key string, it *item) {
	if len(s.items) == 0 || it.ref.File < s.first {
		s.first = it.ref.File
	}
	s.items[key] = it
}

// unretire turns the retirement into a d flag on every item, so that one
// key of the version can be put again without reviving the others.
func (s *segment) unretire() {
	for _, it := range s.items {
		it.flags |= fDeleted
	}
	s.retired = false
}

// Options configures a DB.
type Options struct {
	// AOF holds the append-only file store configuration (file size,
	// GC threshold, free-space pressure override).
	AOF aof.Config
	// CheckpointEveryBytes writes a memtable checkpoint automatically
	// once that many bytes have been appended since the last one
	// (paper §2.1: the memtable "is checkpointed periodically"). Zero
	// disables checkpoints.
	CheckpointEveryBytes int64
	// Seed is unused: nothing in the engine is random. It stays only
	// while the benchmark's ladder (bench/ladder.go) still sets it.
	Seed int64
	// Metrics, when non-nil, receives the engine's `qindb.*` metrics and
	// is propagated to the AOF store (`aof.*`). Nil keeps all hot paths
	// allocation-free. A registry serves one DB: the engine's
	// own counters live in it.
	Metrics *metrics.Registry
}

// DefaultOptions mirrors the paper's configuration: 64 MB AOFs and a
// 25 % occupancy GC threshold.
func DefaultOptions() Options {
	return Options{AOF: aof.DefaultConfig()}
}

// Stats aggregates engine counters for the experiments.
type Stats struct {
	Keys           int   // memtable items (all versions)
	UserWriteBytes int64 // application payload bytes accepted by Put/Del
	UserReadBytes  int64 // value bytes returned by Get
	Puts           int64
	Gets           int64
	Dels           int64
	Tracebacks     int64 // GETs that had to follow the dedup chain
	Checkpoints    int64 // memtable checkpoints written
	Store          aof.Stats
}

// DB is a QinDB instance over one (simulated) SSD.
//
// Two locks, taken in this order, split "no other mutator" from "no
// reader" (DESIGN.md §1 has the whole contract):
//
//   - wmu serialises the mutators — Put, Del, DropVersion (each with the
//     GC pass or checkpoint it makes due), Close — each for its whole
//     operation. Holding it means nothing else changes the memtable, the
//     store or the fields below, so its holder reads all of them without
//     mu.
//   - mu keeps readers out. Readers hold it shared from lookup to the end
//     of the flash read; a mutator holds it exclusively only around the
//     memtable and file-table changes themselves, a bounded number per
//     hold, and around the erase of a collected file.
//
// The memtable is one segment per version, so an operation on a version
// searches that version's keys only, and retiring one marks its segment.
type DB struct {
	wmu   sync.Mutex
	mu    sync.RWMutex
	store *aof.Store
	opts  Options
	fs    blockfs.FS

	// Written under wmu and mu both; read under either.
	closed bool
	segs   []*segment // ascending version; every item of the memtable

	// Owned by the wmu holder.
	maxSeq    uint64  // highest sequence replayed or appended
	sinceCkpt int64   // bytes appended since the last checkpoint
	baseBuf   [8]byte // a dedup record's encoded base, copied by Append
	excl      exclLock
	// tombs holds, per file, the deletion records — tombstones and
	// version-drop records — no checkpoint covers yet: each counts live
	// and GC keeps it until a checkpoint does (DESIGN.md §1).
	tombs map[uint32][]aof.Ref
	// gcKeep and gcGone are a GC pass's lists (victimLocked), kept from
	// pass to pass.
	gcKeep keepList
	gcGone []goneItem
	// ckptBuf is the checkpoint image's buffer, kept from one to the next
	// while it is at most twice the last image.
	ckptBuf []byte
	// manualGC keeps Del and DropVersion from running the GC pass they
	// make due. Only the package's tests set it, to choose when one runs.
	manualGC bool

	// Counters: one atomic cell per number, read by Stats, Health and
	// the registry alike, so counting a request never needs db.mu.
	userWriteBytes atomic.Int64
	userReadBytes  atomic.Int64
	puts, gets     atomic.Int64
	dels           atomic.Int64
	checkpoints    atomic.Int64

	reg *metrics.Registry
	met engineMetrics
}

// exclLock is the exclusive side of DB.mu as retirement and GC take it:
// a sync.Locker that observes how long each hold kept readers out. Only
// the wmu holder uses it, so one start time is enough.
type exclLock struct {
	mu    *sync.RWMutex
	hold  *metrics.Histogram
	since time.Time
}

func (l *exclLock) Lock() {
	l.mu.Lock()
	l.since = time.Now()
}

func (l *exclLock) Unlock() {
	held := time.Since(l.since)
	l.mu.Unlock()
	l.hold.Observe(float64(held) / float64(time.Microsecond))
}

// memItemOverhead is the per-item memtable footprint beyond the key bytes:
// the item (48 B with its size class), its map slot at the map's load
// (35–55 B) and the key's size-class rounding. Measured with Go 1.24's
// maps at 107–127 B a 20-byte key between 100,000 and 8,000 keys in one
// version; TestMemtableBytesMatchesHeap keeps it honest.
const memItemOverhead = 96

// engineMetrics holds the engine's registry handles. Those that only
// the registry reads are nil without one, and the metric types'
// nil-receiver no-ops make every record site a guarded no-op in that
// case. tracebacks also feeds Stats, so it is the registry's cell when
// there is a registry and a private one otherwise — never nil, never a
// second copy.
type engineMetrics struct {
	putBytes   *metrics.Counter
	dedupPuts  *metrics.Counter
	tracebacks *metrics.Counter   // GETs that followed the dedup chain
	memBytes   *metrics.Gauge     // approximate memtable footprint (key bytes + overhead)
	exclHold   *metrics.Histogram // wall clock: one retirement/GC hold of db.mu
}

func newEngineMetrics(reg *metrics.Registry) engineMetrics {
	m := engineMetrics{
		putBytes:   reg.Counter("qindb.put.bytes"),
		dedupPuts:  reg.Counter("qindb.put.dedup"),
		tracebacks: reg.Counter("qindb.get.tracebacks"),
		memBytes:   reg.Gauge("qindb.memtable.bytes"),
		exclHold:   reg.Histogram("qindb.lock.excl_hold_us"),
	}
	if reg == nil {
		m.tracebacks = new(metrics.Counter)
	}
	return m
}

// Open creates or recovers a DB over fs. If the filesystem already
// contains AOFs (and optionally a checkpoint), the memtable and GC table
// are rebuilt from them — the recovery path of paper §2.3.
func Open(fs blockfs.FS, opts Options) (*DB, error) {
	if opts.AOF.FileSize == 0 {
		opts.AOF = aof.DefaultConfig()
	}
	if opts.AOF.Metrics == nil {
		opts.AOF.Metrics = opts.Metrics
	}
	store, err := aof.Open(fs, opts.AOF)
	if err != nil {
		return nil, err
	}
	db := &DB{
		store: store,
		opts:  opts,
		fs:    fs,
		reg:   opts.Metrics,
		met:   newEngineMetrics(opts.Metrics),
		tombs: make(map[uint32][]aof.Ref),
	}
	db.excl = exclLock{mu: &db.mu, hold: db.met.exclHold}
	db.gcKeep.db = db
	if err := db.recover(); err != nil {
		return nil, fmt.Errorf("qindb: recovery: %w", err)
	}
	// Seed the memtable footprint with whatever recovery rebuilt.
	var memBytes int64
	for _, seg := range db.segs {
		for k := range seg.items {
			memBytes += int64(len(k)) + memItemOverhead
		}
	}
	db.met.memBytes.Set(memBytes)
	db.registerDerivedMetrics()
	return db, nil
}

// registerDerivedMetrics publishes the computed gauges the experiments
// report: memtable items and the software write-amplification ratio
// (AOF bytes physically appended — including GC re-appends — over user
// payload bytes accepted; the paper's "up to 2.5x" metric). A no-op
// without a registry.
func (db *DB) registerDerivedMetrics() {
	if db.reg == nil {
		return
	}
	db.reg.GaugeFunc("qindb.memtable.items", func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(db.itemsLocked())
	})
	db.reg.GaugeFunc("qindb.software_wa", func() float64 {
		user := db.userWriteBytes.Load()
		if user == 0 {
			return 0
		}
		return float64(db.store.Stats().AppendedBytes) / float64(user)
	})
}

// Close seals the active AOF. The DB must not be used afterwards.
func (db *DB) Close() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	db.closed = true
	return db.store.Close()
}

// checkKey refuses, before anything is appended, the keys a record
// cannot hold: aof.AppendRecord would write a truncated length, and the record
// would fail its checksum on every later read, GC pass and recovery.
func checkKey(key []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > aof.MaxKeyLen {
		return fmt.Errorf("%w: %d bytes", ErrKeyTooBig, len(key))
	}
	return nil
}

// Put stores value under (key, version). A nil/empty value with
// dedup=true records a deduplicated entry whose real payload lives in an
// older version (Bifrost stripped it before transmission); the traceback
// base is resolved now and persisted inside the record, so recovery and
// GC reproduce exactly this binding. Put returns the simulated device
// cost of the operation.
func (db *DB) Put(key []byte, version uint64, value []byte, dedup bool) (time.Duration, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	if len(value) > aof.MaxValueLen {
		return 0, fmt.Errorf("%w: %d bytes", ErrValueTooBig, len(value))
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	rec := aof.Record{Key: key, Version: version, Value: value}
	var flags uint8
	var base uint64
	var bound *item // the base item a dedup entry binds to
	if dedup {
		rec.Flags |= aof.FlagDedup
		rec.Value = nil
		flags = fDedup
		if b, it, ok := db.resolveBaseLocked(key, version); ok {
			base, bound = b, it
			flags |= fHasBase
			rec.Value = encodeBase(&db.baseBuf, b)
		}
	}
	// The record goes to flash before any reader can find it: only the
	// memtable change below needs the readers out.
	ref, seq, cost, err := db.store.Append(rec)
	if err != nil {
		return cost, err
	}
	db.noteSeq(seq)
	db.mu.Lock()
	seg := db.segmentFor(version)
	if seg.retired {
		seg.unretire()
	}
	if bound != nil {
		bound.refs++
	}
	if old := seg.items[string(key)]; old != nil {
		// Re-PUT of the same (k, t): the previous record is dead, unless a
		// deletion already marked it so. The item keeps its referrers,
		// which read through it.
		if !old.has(fDeleted) {
			db.store.MarkDead(old.ref)
			db.unbind(old)
		} else {
			if old.refs > 0 {
				db.store.MarkDead(old.ref)
			}
			seg.live++ // revived
		}
		old.ref, old.base, old.to, old.flags = ref, base, bound, flags
	} else {
		seg.add(string(key), &item{ref: ref, base: base, to: bound, flags: flags})
		seg.live++
		db.met.memBytes.Add(int64(len(key)) + memItemOverhead)
	}
	db.mu.Unlock()
	db.userWriteBytes.Add(int64(len(key) + len(value)))
	db.puts.Add(1)
	db.met.putBytes.Add(int64(len(key) + len(value)))
	if dedup {
		db.met.dedupPuts.Inc()
	}
	db.sinceCkpt += int64(len(key) + len(value))
	// Space-pressure override of the lazy GC policy (paper §4.1.2): when
	// free flash drops below the configured floor, collect the emptiest
	// sealed files immediately, threshold notwithstanding.
	c, err := db.pressureGCLocked()
	cost += c
	if err != nil {
		return cost, err
	}
	c, err = db.maybeCheckpointLocked()
	cost += c
	return cost, err
}

// pressureGCLocked collects files while the store reports free-space
// pressure. Runs with wmu held. Bounded by the file count so a store of
// fully-live files cannot loop; the count is only taken under pressure.
func (db *DB) pressureGCLocked() (time.Duration, error) {
	if !db.store.UnderPressure() {
		return 0, nil
	}
	var total time.Duration
	for attempts := len(db.store.Files()); attempts > 0 && db.store.UnderPressure(); attempts-- {
		id, ok := db.store.PressureCandidate()
		if !ok {
			break
		}
		cost, err := db.collectLocked(id)
		total += cost
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// segment returns version v's segment, or nil.
func (db *DB) segment(v uint64) *segment {
	if i, ok := db.segIndex(v); ok {
		return db.segs[i]
	}
	return nil
}

// segIndex finds version v in segs: its index, or where it would go.
func (db *DB) segIndex(v uint64) (int, bool) {
	return slices.BinarySearchFunc(db.segs, v, func(s *segment, v uint64) int { return cmp.Compare(s.ver, v) })
}

// lookup returns the item of (key, version) and its segment; the item is
// nil when there is none. A []byte key indexes the map without a copy.
func lookup[K string | []byte](db *DB, key K, version uint64) (*segment, *item) {
	seg := db.segment(version)
	if seg == nil {
		return nil, nil
	}
	return seg, seg.items[string(key)]
}

// segmentFor returns version v's segment, linking in an empty one if
// there is none. Runs with wmu and db.mu held, or in recovery.
func (db *DB) segmentFor(v uint64) *segment {
	i, ok := db.segIndex(v)
	if !ok {
		// A new version mostly loads the previous one's keys again: size
		// its map from that count so loading it does not regrow the map.
		n := 0
		if i > 0 {
			n = len(db.segs[i-1].items)
		}
		db.segs = slices.Insert(db.segs, i, &segment{ver: v, items: make(map[string]*item, n)})
	}
	return db.segs[i]
}

// removeLocked takes key's item out of the memtable for good: if it was
// still live, the item it was bound to loses a referrer, and a segment
// left empty is unlinked. Runs with wmu and db.mu held, or in recovery.
func (db *DB) removeLocked(seg *segment, key string, it *item) {
	delete(seg.items, key)
	db.met.memBytes.Add(-(int64(len(key)) + memItemOverhead))
	if !seg.deleted(it) {
		db.unbind(it)
	}
	if len(seg.items) == 0 {
		i, _ := db.segIndex(seg.ver)
		db.segs = slices.Delete(db.segs, i, i+1)
	}
}

// unbind takes one live referrer, it, off the item it is bound to. A
// deleted base left with none has no reader: its record is dead from now
// on.
func (db *DB) unbind(it *item) {
	b := it.to
	if b == nil {
		return
	}
	if b.refs--; b.refs == 0 && db.segment(it.base).deleted(b) {
		db.store.MarkDead(b.ref)
	}
}

// deleteLocked accounts for it turning deleted: its base loses a live
// referrer, and its own record is dead unless a live referrer still reads
// it. Runs with wmu held.
func (db *DB) deleteLocked(it *item) {
	db.unbind(it)
	if it.refs == 0 {
		db.store.MarkDead(it.ref)
	}
}

// itemsLocked counts the memtable's items, every version's.
func (db *DB) itemsLocked() int {
	n := 0
	for _, seg := range db.segs {
		n += len(seg.items)
	}
	return n
}

// resolveBaseLocked walks the versions below version, newest first, to
// the first entry of key that carries a real value — the traceback of
// paper Fig. 2, performed once at PUT time — and returns its version and
// item. Deleted entries are skipped: they may be removed by GC at any
// moment, and skipping them always keeps the binding independent of GC
// timing. A live dedup entry is a shortcut to its own base (whose record
// GC is guaranteed to preserve). Runs with wmu held.
func (db *DB) resolveBaseLocked(key []byte, version uint64) (uint64, *item, bool) {
	i, _ := db.segIndex(version)
	for i--; i >= 0; i-- {
		seg := db.segs[i]
		if seg.retired {
			continue
		}
		it := seg.items[string(key)]
		switch {
		case it == nil || it.has(fDeleted):
		case !it.has(fDedup):
			return seg.ver, it, true
		case it.has(fHasBase):
			return it.base, it.to, true
		}
	}
	return 0, nil, false
}

// encodeBase serializes a traceback base version into buf, for a dedup
// record's otherwise-unused value field.
func encodeBase(buf *[8]byte, base uint64) []byte {
	for i := 0; i < 8; i++ {
		buf[i] = byte(base >> (8 * i))
	}
	return buf[:]
}

// decodeBase parses encodeBase output; ok is false for records written
// without a resolved base.
func decodeBase(value []byte) (uint64, bool) {
	if len(value) != 8 {
		return 0, false
	}
	var base uint64
	for i := 0; i < 8; i++ {
		base |= uint64(value[i]) << (8 * i)
	}
	return base, true
}

// Get returns the value stored under (key, version), following the dedup
// traceback when the entry's value field was removed (paper Fig. 2), in a
// buffer of its own that the caller owns. The returned cost is the
// simulated device time spent.
func (db *DB) Get(key []byte, version uint64) ([]byte, time.Duration, error) {
	return db.GetAppend(nil, key, version)
}

// GetAppend is Get into the caller's buffer: the value is appended to dst
// and the extended slice returned, reallocated only if dst's capacity
// falls short (see aof.Store.ReadAppend). The record's checksum is
// verified before any of it counts as appended; on an error dst comes back
// with the length and contents it had.
func (db *DB) GetAppend(dst, key []byte, version uint64) ([]byte, time.Duration, error) {
	db.mu.RLock()
	seg, it := lookup(db, key, version)
	out, cost, traced, err := db.readLocked(dst, key, version, seg, it)
	db.mu.RUnlock()
	if err == nil {
		db.countGet(len(out)-len(dst), traced)
	}
	return out, cost, err
}

// TryGetAppend is GetAppend if db.mu is free for a reader at the call:
// when a mutator holds it exclusively, or waits for it, ok is false and
// nothing is read or counted. A caller that must not wait behind a
// retirement or GC hold tries this first and hands the read to a
// goroutine of its own only when it fails.
func (db *DB) TryGetAppend(dst, key []byte, version uint64) (out []byte, cost time.Duration, ok bool, err error) {
	if !db.mu.TryRLock() {
		return dst, 0, false, nil
	}
	seg, it := lookup(db, key, version)
	out, cost, traced, err := db.readLocked(dst, key, version, seg, it)
	db.mu.RUnlock()
	if err == nil {
		db.countGet(len(out)-len(dst), traced)
	}
	return out, cost, true, err
}

// readLocked resolves it, the item of (key, version) in seg or nil, to a
// record and appends its value to dst, in the same shared hold of db.mu
// that found the item: the file a ref points into is only ever erased
// under the exclusive lock, after every kept record has been re-pointed,
// so a ref resolved in this hold stays readable to its end. On an error
// it returns dst unextended.
func (db *DB) readLocked(dst, key []byte, version uint64, seg *segment, it *item) (out []byte, cost time.Duration, traced bool, err error) {
	if db.closed {
		return dst, 0, false, ErrClosed
	}
	if it == nil {
		return dst, 0, false, fmt.Errorf("%w: %q/%d", ErrNotFound, key, version)
	}
	if seg.deleted(it) {
		return dst, 0, false, fmt.Errorf("%w: %q/%d", ErrDeleted, key, version)
	}
	// Resolve the ref to read from: the item itself, or — when r is set —
	// the base entry bound at PUT time.
	ref := it.ref
	if it.has(fDedup) {
		traced = true
		if !it.has(fHasBase) {
			return dst, 0, true, fmt.Errorf("%w: %q/%d", ErrBrokenChain, key, version)
		}
		b := it.to
		if b == nil || b.has(fDedup) {
			return dst, 0, true, fmt.Errorf("%w: %q/%d (base %d)", ErrBrokenChain, key, version, it.base)
		}
		ref = b.ref
	}
	out, cost, err = db.store.ReadAppend(dst, ref)
	return out, cost, traced, err
}

// countGet accounts one successful read of n value bytes.
func (db *DB) countGet(n int, traced bool) {
	db.gets.Add(1)
	if traced {
		db.met.tracebacks.Inc()
	}
	db.userReadBytes.Add(int64(n))
}

// GetLatest returns the newest live (non-deleted) version of key along
// with its version number. Lookup and read share one hold of the lock,
// so a retirement or Del of that version cannot land between them.
func (db *DB) GetLatest(key []byte) ([]byte, uint64, time.Duration, error) {
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return nil, 0, 0, ErrClosed
	}
	var seg *segment
	var it *item
	for i := len(db.segs) - 1; i >= 0 && seg == nil; i-- {
		if it = db.segs[i].items[string(key)]; it != nil && !db.segs[i].deleted(it) {
			seg = db.segs[i]
		}
	}
	if seg == nil {
		db.mu.RUnlock()
		return nil, 0, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	ver := seg.ver
	val, cost, traced, err := db.readLocked(nil, key, ver, seg, it)
	db.mu.RUnlock()
	if err != nil {
		return nil, ver, cost, err
	}
	db.countGet(len(val), traced)
	return val, ver, cost, nil
}

// Del marks (key, version) deleted: the d flag is set in the memtable, a
// small tombstone record is appended so the deletion survives recovery,
// and the GC table occupancy of the record's file is updated (paper
// Fig. 2, DEL steps 1-2). When auto-GC is enabled and a sealed file sits
// at or below the GC threshold, one GC pass runs (steps 3-6); an error
// of that pass is returned with the deletion already in effect.
func (db *DB) Del(key []byte, version uint64) (time.Duration, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	seg, it := lookup(db, key, version)
	if it == nil {
		return 0, fmt.Errorf("%w: %q/%d", ErrNotFound, key, version)
	}
	if seg.deleted(it) {
		return 0, fmt.Errorf("%w: %q/%d", ErrDeleted, key, version)
	}
	ref, seq, cost, err := db.store.Append(aof.Record{
		Key: key, Version: version, Flags: aof.FlagTombstone,
	})
	if err != nil {
		return cost, err
	}
	db.noteSeq(seq)
	db.tombs[ref.File] = append(db.tombs[ref.File], ref)
	db.mu.Lock()
	it.flags |= fDeleted
	db.deleteLocked(it)
	seg.live--
	db.mu.Unlock()
	db.userWriteBytes.Add(int64(len(key)))
	db.dels.Add(1)
	c, err := db.collectFirstLocked()
	return cost + c, err
}

// DropVersion deletes every entry of the given data version — the bulk
// operation the paper's deletion thread performs when a fifth version
// arrives and the oldest must go (§4.1.1). A single meta-record makes
// the drop durable. Values that newer deduplicated versions still refer
// to remain readable until GC decides their fate.
//
// Readers are kept out once, for a moment. With the meta-record on
// flash, one short hold marks the version's segment retired: from its
// release on, every read of the version answers deleted — all of it at
// once, never a mix. The segment alone is then walked, with no engine
// lock held, to take its items off their bases and mark dead the records
// no live entry reads, and the GC pass that follows (if a file is due)
// chunks its holds. DropVersion returns when all of that
// is done. An error of the GC pass is returned with the drop already in
// effect; retrying the drop is harmless.
func (db *DB) DropVersion(version uint64) (int, time.Duration, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return 0, 0, ErrClosed
	}
	ref, seq, cost, err := db.store.Append(aof.Record{
		Version: version, Flags: aof.FlagTombstone | aof.FlagVersionDrop,
	})
	if err != nil {
		return 0, cost, err
	}
	db.noteSeq(seq)
	db.tombs[ref.File] = append(db.tombs[ref.File], ref)
	dropped := 0
	if seg := db.segment(version); seg != nil && !seg.retired {
		db.excl.Lock()
		seg.retired, seg.live = true, 0
		db.excl.Unlock()
		for _, it := range seg.items {
			if !it.has(fDeleted) {
				db.deleteLocked(it)
				dropped++
			}
		}
	}
	c, err := db.collectFirstLocked()
	return dropped, cost + c, err
}

// Versions returns the live data versions in ascending order.
func (db *DB) Versions() []uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]uint64, 0, len(db.segs))
	for _, seg := range db.segs {
		if seg.live > 0 {
			out = append(out, seg.ver)
		}
	}
	return out
}

// KeyCount reports the number of live (non-deleted) keys in version v
// — what a keyspace summary (RESP DBSIZE, INFO Keyspace) serves without
// walking the memtable.
func (db *DB) KeyCount(version uint64) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if seg := db.segment(version); seg != nil {
		return seg.live
	}
	return 0
}

// RetainVersions drops the oldest versions until at most n remain,
// returning how many versions were dropped. The paper retains at most
// four versions per store (§1.1.2).
func (db *DB) RetainVersions(n int) (int, error) {
	dropped := 0
	for {
		vs := db.Versions()
		if len(vs) <= n {
			return dropped, nil
		}
		if _, _, err := db.DropVersion(vs[0]); err != nil {
			return dropped, err
		}
		dropped++
	}
}

// Range calls fn, in key order, for every key in [from, to) whose newest
// entry is not deleted, with that entry's version; an empty "to" means
// unbounded. This is the range scan capability hash-based stores lack
// (paper §6.1). Values are not fetched; use Get for payloads. The entries
// in range are copied out of every version under a shared hold of db.mu
// and sorted after its release, so fn runs with no engine lock held. It is
// an operator's path: no workload sends it.
func (db *DB) Range(from, to []byte, fn func(key []byte, version uint64) bool) {
	type entry struct {
		key     string
		ver     uint64
		deleted bool
	}
	var es []entry
	db.mu.RLock()
	for _, seg := range db.segs {
		for k, it := range seg.items {
			if k >= string(from) && (len(to) == 0 || k < string(to)) {
				es = append(es, entry{k, seg.ver, seg.deleted(it)})
			}
		}
	}
	db.mu.RUnlock()
	slices.SortFunc(es, func(a, b entry) int {
		if c := strings.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(b.ver, a.ver) // newest first
	})
	for i, e := range es {
		if i > 0 && es[i-1].key == e.key {
			continue // an older entry of the key
		}
		if !e.deleted && !fn([]byte(e.key), e.ver) {
			return
		}
	}
}

// Has reports whether (key, version) exists and is not deleted.
func (db *DB) Has(key []byte, version uint64) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seg, it := lookup(db, key, version)
	return it != nil && !seg.deleted(it)
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return Stats{
		Keys:           db.itemsLocked(),
		UserWriteBytes: db.userWriteBytes.Load(),
		UserReadBytes:  db.userReadBytes.Load(),
		Puts:           db.puts.Load(),
		Gets:           db.gets.Load(),
		Dels:           db.dels.Load(),
		Tracebacks:     db.met.tracebacks.Load(),
		Checkpoints:    db.checkpoints.Load(),
		Store:          db.store.Stats(),
	}
}

func (db *DB) noteSeq(seq uint64) {
	if seq >= db.maxSeq {
		db.maxSeq = seq + 1
	}
}
