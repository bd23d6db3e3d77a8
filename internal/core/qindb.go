// Package core implements QinDB (Quick-Indexing Database), the paper's
// primary contribution (§2.3): the per-storage-node key-value engine that
// replaces an LSM-tree with a memory-resident sorted table (memtable) of
// keys plus append-only files (AOFs) on SSD holding the values.
//
// Keys are versioned: every entry is addressed as (key, version), written
// as k/t in the paper. The engine mutates the classical GET/PUT/DEL
// operations so they work over deduplicated data (paper Fig. 2):
//
//   - PUT(k/t, v|NULL) appends the record to the AOF tail and inserts a
//     skip-list item carrying the AOF offset, a flag r ("the value field
//     was removed by deduplication") and a flag d ("deleted").
//   - GET(k/t) looks up the skip list; when r is set it traces back to
//     older versions of k until a record with a real value is found.
//   - DEL(k/t) only sets d and updates the GC table's occupancy ratio;
//     space is reclaimed later by the lazy garbage collector.
//
// Sorting happens exclusively in memory, so the only software write
// amplification left is the GC's re-append of still-referenced records.
// Stored on a block-aligned filesystem (blockfs.NativeFS), the engine
// also has zero hardware write amplification.
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/metrics"
	"directload/internal/skiplist"
)

// Engine errors.
var (
	ErrNotFound     = errors.New("qindb: not found")
	ErrDeleted      = errors.New("qindb: deleted")
	ErrBrokenChain  = errors.New("qindb: dedup chain has no base value")
	ErrClosed       = errors.New("qindb: closed")
	ErrEmptyKey     = errors.New("qindb: empty key")
	ErrKeyTooBig    = errors.New("qindb: key exceeds the record format's limit")
	ErrValueTooBig  = errors.New("qindb: value exceeds limit")
	ErrDedupNoPrior = errors.New("qindb: dedup put without any prior version")
)

// item flags in the memtable.
const (
	fDedup         uint8 = 1 << iota // r: value removed by deduplication
	fDeleted                         // d: logically deleted
	fOnDiskDeleted                   // the flash record already carries FlagDropped
	fHasBase                         // dedup item with a resolved traceback base
)

// ikey is the composite memtable key: primary order is the user key
// ascending; secondary order is the version DESCENDING, so the newest
// version of a key is encountered first and traceback to older versions
// is a short forward walk.
type ikey struct {
	key string
	ver uint64
}

func ikeyCompare(a, b ikey) int {
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c
	}
	// Descending version order.
	switch {
	case a.ver > b.ver:
		return -1
	case a.ver < b.ver:
		return 1
	default:
		return 0
	}
}

// item is the memtable payload: where the record lives on flash plus the
// r/d flags of paper Fig. 2. For deduplicated entries, base is the older
// version whose value this entry shares. The binding is resolved once, at
// PUT time (the walk down the skip list to the first older version that
// still carries a value), so a GET is a single extra skip-list lookup and
// the result can never change under garbage collection.
type item struct {
	ref   aof.Ref
	base  uint64 // valid when fHasBase is set
	flags uint8
}

func (it item) has(f uint8) bool { return it.flags&f != 0 }

// Options configures a DB.
type Options struct {
	// AOF holds the append-only file store configuration (file size,
	// GC threshold, free-space pressure override).
	AOF aof.Config
	// DisableAutoGC turns off the GC pass piggybacked on Del and
	// DropVersion; the caller then drives GC via CollectOnce/CollectAll.
	DisableAutoGC bool
	// CheckpointEveryBytes writes a memtable checkpoint automatically
	// once that many bytes have been appended since the last one
	// (paper §2.1: the memtable "is checkpointed periodically"). Zero
	// disables automatic checkpoints; Checkpoint() always works.
	CheckpointEveryBytes int64
	// Seed makes skip-list level choices deterministic.
	Seed int64
	// Metrics, when non-nil, receives the engine's `qindb.*` metrics and
	// is propagated to the AOF store (`aof.*`). GC cycles, checkpoints
	// and recovery record spans on the registry's tracer. Nil keeps all
	// hot paths allocation-free. A registry serves one DB: the engine's
	// own counters live in it.
	Metrics *metrics.Registry
}

// DefaultOptions mirrors the paper's configuration: 64 MB AOFs and a
// 25 % occupancy GC threshold.
func DefaultOptions() Options {
	return Options{AOF: aof.DefaultConfig(), Seed: 1}
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
// reader" (DESIGN.md §3.1 has the whole contract):
//
//   - wmu serialises the mutators — Put, Del, DropVersion, the GC entry
//     points, Checkpoint, Close — each for its whole operation. Holding it
//     means nothing else changes the memtable, the store or the fields
//     below, so its holder reads all of them without mu.
//   - mu keeps readers out. Readers hold it shared from lookup to the end
//     of the flash read; a mutator holds it exclusively only around the
//     memtable and file-table changes themselves, a bounded number per
//     hold, and around the erase of a collected file.
type DB struct {
	wmu   sync.Mutex
	mu    sync.RWMutex
	table *skiplist.List[ikey, item]
	store *aof.Store
	opts  Options
	fs    blockfs.FS

	// Written under wmu and mu both; read under either.
	closed   bool
	versions map[uint64]int // live item count per version
	// retiring is the version DropVersion is flagging item by item; while
	// isRetiring is set readers answer for all of it as deleted.
	retiring   uint64
	isRetiring bool

	// Owned by the wmu holder.
	maxSeq    uint64 // highest sequence replayed or appended
	sinceCkpt int64  // bytes appended since the last checkpoint
	excl      exclLock

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

// memItemOverhead approximates the per-item memtable footprint beyond
// the key bytes (skip-list node, item struct, version map share).
const memItemOverhead = 64

// engineMetrics holds the engine's registry handles. Those that only
// the registry reads are nil without one, and the metric types'
// nil-receiver no-ops make every record site a guarded no-op in that
// case. tracebacks also feeds Stats, so it is the registry's cell when
// there is a registry and a private one otherwise — never nil, never a
// second copy.
type engineMetrics struct {
	putCost     *metrics.Histogram // simulated device time, not wall clock
	getCost     *metrics.Histogram
	delCost     *metrics.Histogram
	putBytes    *metrics.Counter
	dedupPuts   *metrics.Counter
	tracebacks  *metrics.Counter // GETs that followed the dedup chain
	memBytes    *metrics.Gauge   // approximate memtable footprint (key bytes + overhead)
	gcReclaimed *metrics.Counter
	exclHold    *metrics.Histogram // wall clock: one retirement/GC hold of db.mu
}

func newEngineMetrics(reg *metrics.Registry) engineMetrics {
	m := engineMetrics{
		putCost:     reg.Histogram("qindb.put.device_us"),
		getCost:     reg.Histogram("qindb.get.device_us"),
		delCost:     reg.Histogram("qindb.del.device_us"),
		putBytes:    reg.Counter("qindb.put.bytes"),
		dedupPuts:   reg.Counter("qindb.put.dedup"),
		tracebacks:  reg.Counter("qindb.get.tracebacks"),
		memBytes:    reg.Gauge("qindb.memtable.bytes"),
		gcReclaimed: reg.Counter("qindb.gc.reclaimed_bytes"),
		exclHold:    reg.Histogram("qindb.lock.excl_hold_us"),
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
		table:    skiplist.New[ikey, item](ikeyCompare, opts.Seed),
		store:    store,
		opts:     opts,
		fs:       fs,
		versions: make(map[uint64]int),
		reg:      opts.Metrics,
		met:      newEngineMetrics(opts.Metrics),
	}
	db.excl = exclLock{mu: &db.mu, hold: db.met.exclHold}
	endRecover := db.reg.Span("qindb.recovery")
	err = db.recover()
	endRecover(err)
	if err != nil {
		return nil, fmt.Errorf("qindb: recovery: %w", err)
	}
	// Seed the memtable footprint with whatever recovery rebuilt.
	var memBytes int64
	db.table.AscendAll(func(k ikey, v item) bool {
		memBytes += int64(len(k.key)) + memItemOverhead
		return true
	})
	db.met.memBytes.Set(memBytes)
	db.registerDerivedMetrics()
	return db, nil
}

// HealthReport is a point-in-time engine readiness snapshot — the
// inputs of an operator's /readyz decision.
type HealthReport struct {
	Closed bool `json:"closed"`
	// UnderPressure reports the AOF device near capacity even after GC
	// has had its chance — writes may soon start failing.
	UnderPressure bool `json:"under_pressure"`
}

// Health returns the engine's readiness snapshot. Usable (and cheap)
// with or without a metrics registry.
func (db *DB) Health() HealthReport {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return HealthReport{
		Closed:        db.closed,
		UnderPressure: db.store.UnderPressure(),
	}
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
		return float64(db.table.Len())
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
	if dedup {
		rec.Flags |= aof.FlagDedup
		rec.Value = nil
		flags = fDedup
		if b, ok := db.resolveBaseLocked(string(key), version); ok {
			base = b
			flags |= fHasBase
			rec.Value = encodeBase(b)
		}
	}
	// The record goes to flash before any reader can find it: only the
	// memtable change below needs the readers out.
	ref, seq, cost, err := db.store.Append(rec)
	if err != nil {
		return cost, err
	}
	db.noteSeq(seq)
	ik := ikey{string(key), version}
	db.mu.Lock()
	if old, ok := db.table.Get(ik); ok {
		// Re-PUT of the same (k, t): the previous record is dead.
		db.store.MarkDead(old.ref)
		db.table.Update(ik, func(item) item { return item{ref: ref, base: base, flags: flags} })
		if old.has(fDeleted) {
			db.versions[version]++ // revived
		}
	} else {
		db.table.Set(ik, item{ref: ref, base: base, flags: flags})
		db.versions[version]++
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
	if err == nil {
		db.met.putCost.Observe(float64(cost) / float64(time.Microsecond))
	}
	return cost, err
}

// pressureGCLocked collects files while the store reports free-space
// pressure. Runs with wmu held. Bounded by the file count so a store of
// fully-live files cannot loop.
func (db *DB) pressureGCLocked() (time.Duration, error) {
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

// resolveBaseLocked walks down from just below version to the first older
// entry of key that carries a real value — the traceback of paper Fig. 2,
// performed once at PUT time. Deleted entries are skipped: they may be
// removed by GC at any moment, and skipping them always keeps the binding
// independent of GC timing. A live dedup entry is a shortcut to its own
// base (whose record GC is guaranteed to preserve). Runs with wmu held.
func (db *DB) resolveBaseLocked(key string, version uint64) (uint64, bool) {
	if version == 0 {
		return 0, false
	}
	var base uint64
	found := false
	db.table.Ascend(ikey{key, version - 1}, func(k ikey, v item) bool {
		if k.key != key {
			return false
		}
		if v.has(fDeleted) {
			return true
		}
		if !v.has(fDedup) {
			base, found = k.ver, true
			return false
		}
		if v.has(fHasBase) {
			base, found = v.base, true
			return false
		}
		return true
	})
	return base, found
}

// encodeBase serializes a traceback base version into a dedup record's
// otherwise-unused value field.
func encodeBase(base uint64) []byte {
	buf := make([]byte, 8)
	for i := 0; i < 8; i++ {
		buf[i] = byte(base >> (8 * i))
	}
	return buf
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
	out, cost, traced, err := db.readLocked(dst, key, version)
	db.mu.RUnlock()
	if err == nil {
		db.countGet(len(out)-len(dst), cost, traced)
	}
	return out, cost, err
}

// deletedLocked reports whether a reader must answer for the item at
// version as deleted: its d flag is set, or the version is being retired
// and the flag is about to be. Runs with db.mu held.
func (db *DB) deletedLocked(version uint64, it item) bool {
	return it.has(fDeleted) || (db.isRetiring && version == db.retiring)
}

// readLocked resolves (key, version) to a record and appends its value to
// dst, all in the caller's one shared hold of db.mu: the file a ref points
// into is only ever erased under the exclusive lock, after every kept
// record has been re-pointed, so a ref resolved in this hold stays
// readable to its end. On an error it returns dst unextended.
func (db *DB) readLocked(dst, key []byte, version uint64) (out []byte, cost time.Duration, traced bool, err error) {
	if db.closed {
		return dst, 0, false, ErrClosed
	}
	it, ok := db.table.Get(ikey{string(key), version})
	if !ok {
		return dst, 0, false, fmt.Errorf("%w: %q/%d", ErrNotFound, key, version)
	}
	if db.deletedLocked(version, it) {
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
		baseItem, ok := db.table.Get(ikey{string(key), it.base})
		if !ok || baseItem.has(fDedup) {
			return dst, 0, true, fmt.Errorf("%w: %q/%d (base %d)", ErrBrokenChain, key, version, it.base)
		}
		ref = baseItem.ref
	}
	out, cost, err = db.store.ReadAppend(dst, ref)
	return out, cost, traced, err
}

// countGet accounts one successful read of n value bytes.
func (db *DB) countGet(n int, cost time.Duration, traced bool) {
	db.gets.Add(1)
	if traced {
		db.met.tracebacks.Inc()
	}
	db.userReadBytes.Add(int64(n))
	db.met.getCost.Observe(float64(cost) / float64(time.Microsecond))
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
	var found bool
	var ver uint64
	db.table.Ascend(ikey{string(key), math.MaxUint64}, func(k ikey, v item) bool {
		if k.key != string(key) {
			return false
		}
		if !db.deletedLocked(k.ver, v) {
			ver = k.ver
			found = true
			return false
		}
		return true
	})
	if !found {
		db.mu.RUnlock()
		return nil, 0, 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	val, cost, traced, err := db.readLocked(nil, key, ver)
	db.mu.RUnlock()
	if err != nil {
		return nil, ver, cost, err
	}
	db.countGet(len(val), cost, traced)
	return val, ver, cost, nil
}

// Del marks (key, version) deleted: the d flag is set in the memtable, a
// small tombstone record is appended so the deletion survives recovery,
// and the GC table occupancy of the record's file is updated (paper
// Fig. 2, DEL steps 1-2). When auto-GC is enabled and a sealed file sits
// at or below the GC threshold, one GC pass runs (steps 3-6).
func (db *DB) Del(key []byte, version uint64) (time.Duration, error) {
	if err := checkKey(key); err != nil {
		return 0, err
	}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	ik := ikey{string(key), version}
	it, ok := db.table.Get(ik)
	if !ok {
		return 0, fmt.Errorf("%w: %q/%d", ErrNotFound, key, version)
	}
	if it.has(fDeleted) {
		return 0, fmt.Errorf("%w: %q/%d", ErrDeleted, key, version)
	}
	_, seq, cost, err := db.store.Append(aof.Record{
		Key: key, Version: version, Flags: aof.FlagTombstone,
	})
	if err != nil {
		return cost, err
	}
	db.noteSeq(seq)
	db.mu.Lock()
	db.table.Update(ik, func(v item) item {
		v.flags |= fDeleted
		return v
	})
	db.store.MarkDead(it.ref)
	db.versions[version]--
	if db.versions[version] <= 0 {
		delete(db.versions, version)
	}
	db.mu.Unlock()
	db.userWriteBytes.Add(int64(len(key)))
	db.dels.Add(1)
	if !db.opts.DisableAutoGC {
		c, _, _ := db.collectFirstLocked()
		cost += c
	}
	db.met.delCost.Observe(float64(cost) / float64(time.Microsecond))
	return cost, nil
}

// retireChunk bounds how many items one hold of the engine lock flags
// deleted during a retirement: a few hundred microseconds of skip-list
// updates.
const retireChunk = 256

// DropVersion deletes every entry of the given data version — the bulk
// operation the paper's deletion thread performs when a fifth version
// arrives and the oldest must go (§4.1.1). A single meta-record makes
// the drop durable. Values that newer deduplicated versions still refer
// to remain readable until GC decides their fate.
//
// Readers are kept out only for moments. With the meta-record on flash,
// one short hold marks the version retiring: from its release on, every
// read of the version answers deleted — all of it at once, never a mix.
// The version's items are then found with no engine lock held, flagged
// retireChunk per hold, and the GC pass that follows (if a file is due)
// chunks its holds the same way. DropVersion returns when
// all of that is done.
func (db *DB) DropVersion(version uint64) (int, time.Duration, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return 0, 0, ErrClosed
	}
	_, seq, cost, err := db.store.Append(aof.Record{
		Version: version, Flags: aof.FlagTombstone | aof.FlagVersionDrop,
	})
	if err != nil {
		return 0, cost, err
	}
	db.noteSeq(seq)
	db.excl.Lock()
	db.retiring, db.isRetiring = version, true
	delete(db.versions, version)
	db.excl.Unlock()

	keys, refs := db.versionItemsLocked(version)
	dropped := len(keys)
	for len(keys) > 0 {
		n := min(len(keys), retireChunk)
		db.excl.Lock()
		db.flagDeletedLocked(keys[:n])
		for _, ref := range refs[:n] {
			db.store.MarkDead(ref)
		}
		db.excl.Unlock()
		keys, refs = keys[n:], refs[n:]
	}
	db.excl.Lock()
	db.isRetiring = false
	db.excl.Unlock()

	if !db.opts.DisableAutoGC {
		c, _, _ := db.collectFirstLocked()
		cost += c
	}
	return dropped, cost, nil
}

// versionItemsLocked returns the live items of a version and the records
// they point at. It walks the whole memtable, under the skip list's own
// shared lock and no other: it runs with wmu held, so nothing mutates
// the table under it, and readers pass.
func (db *DB) versionItemsLocked(version uint64) ([]ikey, []aof.Ref) {
	var keys []ikey
	var refs []aof.Ref
	db.table.AscendAll(func(k ikey, v item) bool {
		if k.ver == version && !v.has(fDeleted) {
			keys = append(keys, k)
			refs = append(refs, v.ref)
		}
		return true
	})
	return keys, refs
}

// flagDeletedLocked flips d on the given items. Runs with wmu held, and
// with db.mu held exclusively once the DB has readers.
func (db *DB) flagDeletedLocked(keys []ikey) {
	for _, ik := range keys {
		db.table.Update(ik, func(v item) item {
			v.flags |= fDeleted
			return v
		})
	}
}

// Versions returns the live data versions in ascending order.
func (db *DB) Versions() []uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]uint64, 0, len(db.versions))
	for v := range db.versions {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ { // insertion sort: tiny n (≤4 in prod)
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
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
	return db.versions[version]
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

// Range calls fn for every live (non-deleted) newest-version entry whose
// key is in [from, to); an empty "to" means unbounded. This is the range
// scan capability hash-based stores lack (paper §6.1). Values are not
// fetched; use Get for payloads.
func (db *DB) Range(from, to []byte, fn func(key []byte, version uint64) bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	last := ""
	first := true
	db.table.Ascend(ikey{string(from), math.MaxUint64}, func(k ikey, v item) bool {
		if len(to) > 0 && k.key >= string(to) {
			return false
		}
		if !first && k.key == last {
			return true // older version of a key we already emitted/skipped
		}
		first = false
		last = k.key
		if db.deletedLocked(k.ver, v) {
			return true
		}
		return fn([]byte(k.key), k.ver)
	})
}

// Has reports whether (key, version) exists and is not deleted.
func (db *DB) Has(key []byte, version uint64) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	it, ok := db.table.Get(ikey{string(key), version})
	return ok && !db.deletedLocked(version, it)
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return Stats{
		Keys:           db.table.Len(),
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
