package core

import (
	"cmp"
	"slices"
	"time"

	"directload/internal/aof"
)

// CollectOnce collects the first candidate file — the lowest occupancy
// at or below the threshold, then the lowest file id — if there is one.
// It is a no-op when no file qualifies.
func (db *DB) CollectOnce() (time.Duration, error) {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	cost, _, err := db.collectFirstLocked()
	return cost, err
}

// CollectAll drains every candidate. Other writers get their turn
// between files.
func (db *DB) CollectAll() (time.Duration, error) {
	var total time.Duration
	for {
		db.wmu.Lock()
		if db.closed {
			db.wmu.Unlock()
			return total, ErrClosed
		}
		cost, collected, err := db.collectFirstLocked()
		db.wmu.Unlock()
		total += cost
		if err != nil || !collected {
			return total, err
		}
	}
}

// collectFirstLocked collects the first of Candidates, if there is one.
// Runs with wmu held: Del and DropVersion call it on their way out, so a
// pass runs on the mutation that makes it due, and which file it takes
// and when depend on the mutation stream alone.
func (db *DB) collectFirstLocked() (cost time.Duration, collected bool, err error) {
	cands := db.store.Candidates()
	if len(cands) == 0 {
		return 0, false, nil
	}
	cost, err = db.collectLocked(cands[0])
	return cost, true, err
}

// collectLocked garbage-collects one file and credits the bytes it
// reclaimed. Runs with wmu held and db.mu free: the store takes db.mu
// exclusively, through db.excl, a chunk of records at a time and once more
// for the erase (aof.Store.CollectFile).
//
// The memtable names every record the pass can keep: the ref of each item
// in the file that is live or referenced, and the deletion records held
// there. The store reads only those. The file's other items are deleted
// and nothing reads them: they leave the memtable here, GCChunk to a hold,
// and their records are never read (the paper: "QinDB also removes their
// matching items in the skip list, which has the deletion flag set
// already").
func (db *DB) collectLocked(id uint32) (time.Duration, error) {
	keep, gone := db.victimLocked(id)
	for i := 0; i < len(gone); i += aof.GCChunk {
		db.excl.Lock()
		for _, g := range gone[i:min(i+aof.GCChunk, len(gone))] {
			db.removeLocked(g.seg, g.key, g.it)
		}
		db.excl.Unlock()
	}
	clear(gone) // the list is kept for the next pass, the items it names are not
	reclaimed, cost, err := db.store.CollectFile(id, keep, &db.excl, db.gcJudge, db.gcRelocated)
	if err == nil {
		delete(db.tombs, id) // every one was relocated
	}
	db.met.gcReclaimed.Add(reclaimed)
	return cost, err
}

// goneItem is a memtable item a GC pass removes.
type goneItem struct {
	seg *segment
	key string
	it  *item
}

// victimLocked walks the memtable for the items whose record lies in file
// id. keep holds the refs of those that are live or referenced, with the
// deletion records held in the file, ascending by offset; gone holds the
// others. Both are the DB's, reused by the next pass. Runs with wmu held.
func (db *DB) victimLocked(id uint32) (keep []aof.Ref, gone []goneItem) {
	keep, gone = append(db.gcKeep[:0], db.tombs[id]...), db.gcGone[:0]
	for _, seg := range db.segs {
		if seg.first > id {
			continue // every record of the version lies in a newer file
		}
		for k, it := range seg.items {
			switch {
			case it.ref.File != id:
			case !seg.deleted(it) || it.refs > 0:
				keep = append(keep, it.ref)
			default:
				gone = append(gone, goneItem{seg, k, it})
			}
		}
	}
	slices.SortFunc(keep, func(a, b aof.Ref) int { return cmp.Compare(a.Off, b.Off) })
	db.gcKeep, db.gcGone = keep, gone
	return keep, gone
}

// gcJudge decides whether the record at ref survives collection of its
// file (paper Fig. 2, GC step 4), and folds a deletion into a kept record
// that only a live referrer still reads. Runs with db.mu held exclusively
// (one of CollectFile's chunk holds). It sees only the records
// victimLocked named.
func (db *DB) gcJudge(rec *aof.Record, ref aof.Ref) bool {
	if rec.IsTombstone() {
		// A deletion record, tombstone or version drop, is what recovery
		// replays until a checkpoint holds the deletion; the engine names
		// only those it still holds.
		return true
	}
	seg, it := lookup(db, rec.Key, rec.Version)
	if it == nil || it.ref != ref {
		return false // not the record its item names: nothing reads it
	}
	if seg.deleted(it) {
		// Deleted yet read by a live newer deduplicated entry ("invalid
		// key-value pairs that are referred by later version keys"): fold
		// the deletion into the relocated record so it survives recovery
		// without the tombstone.
		rec.Flags |= aof.FlagDropped
	}
	return true
}

// gcRelocated updates the memtable offset of a relocated record (paper
// Fig. 2, GC step 5). Runs with db.mu held exclusively.
func (db *DB) gcRelocated(rec aof.Record, old, new aof.Ref) {
	if rec.IsTombstone() {
		db.tombs[new.File] = append(db.tombs[new.File], new)
		return
	}
	if _, it := lookup(db, rec.Key, rec.Version); it != nil && it.ref == old {
		it.ref = new
		if rec.IsDropped() {
			it.flags |= fOnDiskDeleted
		}
	}
}
