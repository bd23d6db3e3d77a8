package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"sync"

	"directload/internal/blockfs"
	"directload/internal/skiplist"
)

// Engine errors.
var (
	ErrNotFound = errors.New("lsm: not found")
	ErrDeleted  = errors.New("lsm: deleted")
	ErrClosed   = errors.New("lsm: closed")
	ErrNoValue  = errors.New("lsm: dedup chain has no base value")
)

// Options mirror LevelDB's default configuration, which is what the paper
// benchmarks against.
type Options struct {
	// MemtableSize is write_buffer_size: flush to L0 beyond this.
	MemtableSize int64
	// L0CompactionTrigger is the L0 file count that triggers compaction.
	L0CompactionTrigger int
	// L1MaxBytes is the size budget of L1; level i holds 10^(i-1) times
	// more (LevelMultiplier).
	L1MaxBytes      int64
	LevelMultiplier int64
	// TargetFileSize caps the SSTables produced by compaction.
	TargetFileSize int64
	// MaxLevels is the number of levels (LevelDB: 7, L0..L6).
	MaxLevels int
	// BlockCacheBytes bounds the LRU data-block cache (LevelDB default:
	// 8 MB). Zero disables caching.
	BlockCacheBytes int64
	// Seed fixes the memtable skip-list randomness.
	Seed int64
}

// DefaultOptions returns LevelDB 1.9's defaults.
func DefaultOptions() Options {
	return Options{
		MemtableSize:        4 << 20,
		L0CompactionTrigger: 4,
		L1MaxBytes:          10 << 20,
		LevelMultiplier:     10,
		TargetFileSize:      2 << 20,
		MaxLevels:           7,
		BlockCacheBytes:     8 << 20,
		Seed:                1,
	}
}

// memval is the memtable payload.
type memval struct {
	kind  uint8
	value []byte
}

// DB is the LSM engine instance.
type DB struct {
	mu   sync.Mutex
	fs   blockfs.FS
	opts Options

	mem     *skiplist.List[ikey, memval]
	memSize int64
	wal     blockfs.Writer
	walNum  uint64

	levels  [][]tableMeta // levels[0] ordered oldest..newest; 1+ by smallest
	cache   *blockCache
	readers map[uint64]*tableReader
	nextNum uint64 // next file number (sst/wal/manifest share the space)
	maniNum uint64 // current manifest file number (0 = none)

	closed bool

	compactPtr []string // per-level round-robin compaction cursor
}

// Open creates an LSM DB over fs, which must be empty. The baseline is
// never reopened: it writes its WAL and manifest for the I/O a LevelDB
// spends on them, and never reads them back.
func Open(fs blockfs.FS, opts Options) (*DB, error) {
	if opts.MemtableSize == 0 {
		opts = DefaultOptions()
	}
	if opts.MaxLevels < 2 {
		return nil, errors.New("lsm: need at least 2 levels")
	}
	if names := fs.List(); len(names) > 0 {
		return nil, fmt.Errorf("lsm: filesystem holds %d files; Open needs an empty one", len(names))
	}
	db := &DB{
		fs:         fs,
		opts:       opts,
		mem:        skiplist.New[ikey, memval](ikeyCompare, opts.Seed),
		levels:     make([][]tableMeta, opts.MaxLevels),
		cache:      newBlockCache(opts.BlockCacheBytes),
		readers:    make(map[uint64]*tableReader),
		nextNum:    1,
		compactPtr: make([]string, opts.MaxLevels),
	}
	if err := db.newWALLocked(); err != nil {
		return nil, err
	}
	if err := db.writeManifestLocked(); err != nil {
		return nil, err
	}
	return db, nil
}

// Close flushes the memtable and seals the engine.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	db.closed = true
	if db.wal != nil {
		_, err := db.wal.Close()
		db.wal = nil
		if err != nil {
			return err
		}
	}
	return nil
}

// --- WAL ---------------------------------------------------------------

func walName(num uint64) string { return fmt.Sprintf("wal-%010d", num) }

func (db *DB) newWALLocked() error {
	num := db.nextNum
	db.nextNum++
	w, err := db.fs.Create(walName(num))
	if err != nil {
		return err
	}
	db.wal = w
	db.walNum = num
	return nil
}

// walAppend frames one entry as crc | len | payload. Nothing replays it
// (see Open); its bytes are the WAL share of the baseline's write
// amplification.
func (db *DB) walAppendLocked(e entry) error {
	payload := encodeEntry(nil, e)
	frame := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(payload)))
	frame = append(frame, payload...)
	_, _, err := db.wal.Append(frame)
	return err
}

func (db *DB) applyToMemLocked(e entry) {
	old, existed := db.mem.Get(e.ik)
	db.mem.Set(e.ik, memval{kind: e.kind, value: e.value})
	sz := int64(len(e.ik.key) + len(e.value) + 16)
	if existed {
		db.memSize -= int64(len(e.ik.key) + len(old.value) + 16)
	}
	db.memSize += sz
}

// --- Write path ----------------------------------------------------------

// Put stores value under (key, version); dedup entries carry no value and
// are resolved by traceback at read time (the LSM baseline has no stable
// in-memory items to bind against).
func (db *DB) Put(key []byte, version uint64, value []byte, dedup bool) error {
	kind := kindValue
	if dedup {
		kind = kindDedup
		value = nil
	}
	return db.write(entry{ik: ikey{string(key), version}, kind: kind, value: value})
}

// Del writes a tombstone for (key, version).
func (db *DB) Del(key []byte, version uint64) error {
	return db.write(entry{ik: ikey{string(key), version}, kind: kindTombstone})
}

func (db *DB) write(e entry) error {
	if len(e.ik.key) == 0 {
		return errors.New("lsm: empty key")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.walAppendLocked(e); err != nil {
		return err
	}
	db.applyToMemLocked(e)
	if db.memSize >= db.opts.MemtableSize {
		if err := db.flushMemLocked(); err != nil {
			return err
		}
		return db.maybeCompactLocked()
	}
	return nil
}

// flushMemLocked writes the memtable to a new L0 table and starts a fresh
// WAL.
func (db *DB) flushMemLocked() error {
	if db.mem.Len() == 0 {
		return nil
	}
	num := db.nextNum
	db.nextNum++
	tw, err := newTableWriter(db.fs, num)
	if err != nil {
		return err
	}
	var addErr error
	db.mem.AscendAll(func(k ikey, v memval) bool {
		if addErr = tw.add(entry{ik: k, kind: v.kind, value: v.value}); addErr != nil {
			return false
		}
		return true
	})
	if addErr != nil {
		tw.abandon()
		return addErr
	}
	meta, err := tw.finish()
	if err != nil {
		tw.abandon()
		return err
	}
	db.levels[0] = append(db.levels[0], meta)
	db.mem = skiplist.New[ikey, memval](ikeyCompare, db.opts.Seed+int64(num))
	db.memSize = 0
	// Retire the old WAL; its contents are now durable in the table.
	oldWAL := db.walNum
	if _, err := db.wal.Close(); err != nil {
		return err
	}
	if err := db.newWALLocked(); err != nil {
		return err
	}
	if _, err := db.fs.Remove(walName(oldWAL)); err != nil {
		return err
	}
	return db.writeManifestLocked()
}

// Flush forces the memtable to L0 (used by benchmarks to settle state).
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.flushMemLocked(); err != nil {
		return err
	}
	return db.maybeCompactLocked()
}

// --- Manifest ------------------------------------------------------------

func manifestName(num uint64) string { return fmt.Sprintf("manifest-%010d", num) }

// writeManifestLocked persists the level layout, as LevelDB does after
// every flush and compaction. Nothing reads it back (see Open).
func (db *DB) writeManifestLocked() error {
	num := db.nextNum
	db.nextNum++
	var body []byte
	put32 := func(v uint32) { body = binary.LittleEndian.AppendUint32(body, v) }
	put64 := func(v uint64) { body = binary.LittleEndian.AppendUint64(body, v) }
	putIK := func(ik ikey) {
		put32(uint32(len(ik.key)))
		body = append(body, ik.key...)
		put64(ik.ver)
	}
	put64(db.nextNum)
	put64(db.walNum)
	put32(uint32(len(db.levels)))
	for _, tables := range db.levels {
		put32(uint32(len(tables)))
		for _, m := range tables {
			put64(m.num)
			put64(uint64(m.size))
			put32(uint32(m.entries))
			putIK(m.smallest)
			putIK(m.largest)
		}
	}
	w, err := db.fs.Create(manifestName(num))
	if err != nil {
		return err
	}
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, _, err := w.Append(body); err != nil {
		_, cerr := w.Close()
		return errors.Join(err, cerr)
	}
	if _, err := w.Close(); err != nil {
		return err
	}
	old := db.maniNum
	db.maniNum = num
	if old != 0 {
		db.fs.Remove(manifestName(old))
	}
	return nil
}

// --- Read path -----------------------------------------------------------

func (db *DB) reader(m tableMeta) (*tableReader, error) {
	if tr, ok := db.readers[m.num]; ok {
		return tr, nil
	}
	tr, err := openTable(db.fs, m)
	if err != nil {
		return nil, err
	}
	tr.cache = db.cache
	db.readers[m.num] = tr
	return tr, nil
}

// Get returns the value at (key, version), tracing deduplicated entries
// back to the first older version holding a value.
func (db *DB) Get(key []byte, version uint64) ([]byte, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	value, kind, found, err := db.findLocked(ikey{string(key), version})
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q/%d", ErrNotFound, key, version)
	}
	switch kind {
	case kindTombstone:
		return nil, fmt.Errorf("%w: %q/%d", ErrDeleted, key, version)
	case kindValue:
		return value, nil
	}
	// Dedup: walk older versions until a real value appears.
	it, err := db.mergedIterLocked(ikey{string(key), version - 1})
	if err != nil {
		return nil, err
	}
	for it.valid() {
		e := it.cur()
		if e.ik.key != string(key) {
			break
		}
		if e.kind == kindValue {
			return e.value, nil
		}
		it.next()
	}
	return nil, fmt.Errorf("%w: %q/%d", ErrNoValue, key, version)
}

// findLocked searches memtable then levels for the exact composite key.
func (db *DB) findLocked(ik ikey) ([]byte, uint8, bool, error) {
	if v, ok := db.mem.Get(ik); ok {
		return v.value, v.kind, true, nil
	}
	// L0: newest file first (files may overlap).
	for i := len(db.levels[0]) - 1; i >= 0; i-- {
		m := db.levels[0][i]
		if ik.key < m.smallest.key || ik.key > m.largest.key {
			continue
		}
		tr, err := db.reader(m)
		if err != nil {
			return nil, 0, false, err
		}
		v, kind, found, err := tr.get(ik)
		if err != nil || found {
			return v, kind, found, err
		}
	}
	// L1+: at most one file per level can contain the key.
	for l := 1; l < len(db.levels); l++ {
		tables := db.levels[l]
		idx := sort.Search(len(tables), func(i int) bool {
			return tables[i].largest.key >= ik.key
		})
		if idx >= len(tables) || ik.key < tables[idx].smallest.key {
			continue
		}
		tr, err := db.reader(tables[idx])
		if err != nil {
			return nil, 0, false, err
		}
		v, kind, found, err := tr.get(ik)
		if err != nil || found {
			return v, kind, found, err
		}
	}
	return nil, 0, false, nil
}

var maxIkeyVer = uint64(math.MaxUint64)
