package lsm

import "fmt"

// --- merged iteration ----------------------------------------------------

// msource is a positioned, sorted entry stream. Sources are merged in
// priority order: when two sources yield the same composite key, the
// lower-index (newer) source wins and the duplicate is skipped.
type msource interface {
	valid() bool
	cur() entry
	next()
}

// memSource adapts the memtable iterator.
type memSource struct {
	it *skiplistIter
}

// skiplistIter materializes a memtable snapshot ascending from a start
// key. The memtable is tiny relative to values (keys only dominate), and
// compaction/Get hold db.mu anyway, so a copied snapshot keeps the
// iterator semantics simple.
type skiplistIter struct {
	entries []entry
	pos     int
}

func (db *DB) memIterLocked(start ikey) *skiplistIter {
	it := &skiplistIter{}
	db.mem.Ascend(start, func(k ikey, v memval) bool {
		it.entries = append(it.entries, entry{ik: k, kind: v.kind, value: v.value})
		return true
	})
	return it
}

func (s *memSource) valid() bool { return s.it.pos < len(s.it.entries) }
func (s *memSource) cur() entry  { return s.it.entries[s.it.pos] }
func (s *memSource) next()       { s.it.pos++ }

// tableSource adapts a tableIter.
type tableSource struct {
	it *tableIter
	ok bool
}

func newTableSource(it *tableIter, start ikey, seek bool) *tableSource {
	s := &tableSource{it: it}
	if seek {
		s.ok = it.seek(start)
	} else {
		s.ok = it.next()
	}
	return s
}

func (s *tableSource) valid() bool { return s.ok && s.it.valid }
func (s *tableSource) cur() entry  { return s.it.cur }
func (s *tableSource) next()       { s.ok = s.it.next() }

// mergedIter merges sources with newest-wins shadowing.
type mergedIter struct {
	srcs []msource
	e    entry
	ok   bool
}

func newMergedIter(srcs []msource) *mergedIter {
	m := &mergedIter{srcs: srcs}
	m.advance()
	return m
}

func (m *mergedIter) valid() bool { return m.ok }
func (m *mergedIter) cur() entry  { return m.e }

// advance selects the smallest current key (ties: lowest source index)
// and consumes that key from every source.
func (m *mergedIter) advance() {
	best := -1
	for i, s := range m.srcs {
		if !s.valid() {
			continue
		}
		if best < 0 || ikeyLess(s.cur().ik, m.srcs[best].cur().ik) {
			best = i
		}
	}
	if best < 0 {
		m.ok = false
		return
	}
	m.e = m.srcs[best].cur()
	m.ok = true
	ik := m.e.ik
	for _, s := range m.srcs {
		for s.valid() && ikeyCompare(s.cur().ik, ik) == 0 {
			s.next()
		}
	}
}

func (m *mergedIter) next() { m.advance() }

// mergedIterLocked builds a merged iterator over the memtable and every
// table, seeked to start. Caller holds db.mu.
func (db *DB) mergedIterLocked(start ikey) (*mergedIter, error) {
	srcs := []msource{&memSource{it: db.memIterLocked(start)}}
	// L0 newest first.
	for i := len(db.levels[0]) - 1; i >= 0; i-- {
		tr, err := db.reader(db.levels[0][i])
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, newTableSource(tr.iter(), start, true))
	}
	for l := 1; l < len(db.levels); l++ {
		for _, meta := range db.levels[l] {
			if meta.largest.key < start.key {
				continue
			}
			tr, err := db.reader(meta)
			if err != nil {
				return nil, err
			}
			srcs = append(srcs, newTableSource(tr.iter(), start, true))
		}
	}
	return newMergedIter(srcs), nil
}

// DropVersion deletes every live entry of version (the paper's "deletion
// thread removes the oldest version"). The LSM engine has no version
// index, so this is a full scan followed by tombstone writes — exactly
// the extra work an LSM pays for bulk version retirement.
func (db *DB) DropVersion(version uint64) (int, error) {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return 0, ErrClosed
	}
	it, err := db.mergedIterLocked(ikey{"", maxIkeyVer})
	if err != nil {
		db.mu.Unlock()
		return 0, err
	}
	var victims []string
	for it.valid() {
		e := it.cur()
		if e.ik.ver == version && e.kind != kindTombstone {
			victims = append(victims, e.ik.key)
		}
		it.next()
	}
	db.mu.Unlock()
	for _, k := range victims {
		if err := db.Del([]byte(k), version); err != nil {
			return 0, err
		}
	}
	return len(victims), nil
}

// --- compaction ----------------------------------------------------------

// maxBytesForLevel returns LevelDB's level size budget.
func (db *DB) maxBytesForLevel(level int) int64 {
	bytes := db.opts.L1MaxBytes
	for l := 1; l < level; l++ {
		bytes *= db.opts.LevelMultiplier
	}
	return bytes
}

func (db *DB) levelBytesLocked(level int) int64 {
	var b int64
	for _, m := range db.levels[level] {
		b += m.size
	}
	return b
}

// pickCompactionLocked returns the level most in need of compaction, or
// -1 when the tree is within budget.
func (db *DB) pickCompactionLocked() int {
	if len(db.levels[0]) >= db.opts.L0CompactionTrigger {
		return 0
	}
	for l := 1; l < len(db.levels)-1; l++ {
		if db.levelBytesLocked(l) > db.maxBytesForLevel(l) {
			return l
		}
	}
	return -1
}

// maybeCompactLocked runs compactions until every level is within budget.
// Inline (synchronous) compaction makes the write-amplification series of
// Fig. 5 deterministic.
func (db *DB) maybeCompactLocked() error {
	for {
		level := db.pickCompactionLocked()
		if level < 0 {
			return nil
		}
		if err := db.compactLevelLocked(level); err != nil {
			return err
		}
	}
}

// compactLevelLocked merges inputs from level into level+1.
func (db *DB) compactLevelLocked(level int) error {
	target := level + 1
	var inputs []tableMeta // priority order: newest first
	if level == 0 {
		// All L0 files, newest first (they may overlap each other).
		for i := len(db.levels[0]) - 1; i >= 0; i-- {
			inputs = append(inputs, db.levels[0][i])
		}
	} else {
		// Round-robin cursor across the level's key space.
		tables := db.levels[level]
		idx := 0
		for i, m := range tables {
			if m.smallest.key > db.compactPtr[level] {
				idx = i
				break
			}
		}
		inputs = append(inputs, tables[idx])
		db.compactPtr[level] = tables[idx].largest.key
		if idx == len(tables)-1 {
			db.compactPtr[level] = "" // wrap
		}
	}
	// Key range of the inputs, then the overlapping files of the target
	// level (older: appended after).
	lo, hi := inputs[0].smallest.key, inputs[0].largest.key
	for _, m := range inputs[1:] {
		if m.smallest.key < lo {
			lo = m.smallest.key
		}
		if m.largest.key > hi {
			hi = m.largest.key
		}
	}
	var targetInputs []tableMeta
	for _, m := range db.levels[target] {
		if m.overlaps(lo, hi) {
			targetInputs = append(targetInputs, m)
		}
	}
	all := append(append([]tableMeta(nil), inputs...), targetInputs...)

	// Tombstones can be dropped when nothing below the target level can
	// hold an older entry for these keys.
	dropTombstones := true
	for l := target + 1; l < len(db.levels); l++ {
		for _, m := range db.levels[l] {
			if m.overlaps(lo, hi) {
				dropTombstones = false
			}
		}
	}

	var srcs []msource
	for _, m := range all {
		tr, err := db.reader(m)
		if err != nil {
			return err
		}
		srcs = append(srcs, newTableSource(tr.iter(), ikey{}, false))
		db.compactionRead += m.size
	}
	merged := newMergedIter(srcs)

	var outputs []tableMeta
	var tw *tableWriter
	var outBytes int64
	finishOutput := func() error {
		if tw == nil {
			return nil
		}
		meta, err := tw.finish()
		if err != nil {
			tw.abandon()
			return err
		}
		outputs = append(outputs, meta)
		db.compactionWrite += meta.size
		tw = nil
		outBytes = 0
		return nil
	}
	lastKey := ""
	pendingSplit := false
	for merged.valid() {
		e := merged.cur()
		merged.next()
		if dropTombstones && e.kind == kindTombstone {
			continue
		}
		// Output files may only split between distinct user keys: the
		// point-lookup path locates at most one table per level for a
		// key, so all versions of a key must live in the same table.
		if pendingSplit && e.ik.key != lastKey {
			if err := finishOutput(); err != nil {
				return err
			}
			pendingSplit = false
		}
		if tw == nil {
			w, err := newTableWriter(db.fs, db.nextNum)
			if err != nil {
				return err
			}
			db.nextNum++
			tw = w
		}
		if err := tw.add(e); err != nil {
			tw.abandon()
			return err
		}
		lastKey = e.ik.key
		outBytes += int64(len(e.ik.key) + len(e.value) + 15)
		if outBytes >= db.opts.TargetFileSize {
			pendingSplit = true
		}
	}
	if err := finishOutput(); err != nil {
		return err
	}

	// Install outputs, retire inputs.
	dead := make(map[uint64]bool, len(all))
	for _, m := range all {
		dead[m.num] = true
	}
	if level == 0 {
		db.levels[0] = nil
	} else {
		db.levels[level] = removeTables(db.levels[level], dead)
	}
	db.levels[target] = removeTables(db.levels[target], dead)
	db.levels[target] = append(db.levels[target], outputs...)
	sortTables(db.levels[target])
	for _, m := range all {
		delete(db.readers, m.num)
		db.cache.dropTable(m.num)
		if _, err := db.fs.Remove(tableName(m.num)); err != nil {
			return fmt.Errorf("lsm: removing input table: %w", err)
		}
	}
	db.compactions++
	return db.writeManifestLocked()
}

func removeTables(tables []tableMeta, dead map[uint64]bool) []tableMeta {
	out := tables[:0]
	for _, m := range tables {
		if !dead[m.num] {
			out = append(out, m)
		}
	}
	return append([]tableMeta(nil), out...)
}

func sortTables(tables []tableMeta) {
	for i := 1; i < len(tables); i++ {
		for j := i; j > 0 && ikeyLess(tables[j].smallest, tables[j-1].smallest); j-- {
			tables[j], tables[j-1] = tables[j-1], tables[j]
		}
	}
}
