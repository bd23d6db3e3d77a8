package core

import (
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

// collectLocked garbage-collects one file and credits the bytes it reclaimed. Runs with wmu held and db.mu free: the
// store takes db.mu exclusively, through db.excl, a batch of records at a
// time and once more for the erase (aof.Store.CollectFile).
func (db *DB) collectLocked(id uint32) (time.Duration, error) {
	reclaimed, cost, err := db.store.CollectFile(id, &db.excl, db.gcJudge, db.gcRelocated)
	db.met.gcReclaimed.Add(reclaimed)
	return cost, err
}

// gcJudge decides whether the record at ref survives collection of its
// file (paper Fig. 2, GC step 4). Runs with db.mu held exclusively (one
// of CollectFile's batch holds).
// Side effect: items whose records are dropped for good are removed from
// the memtable (the paper: "QinDB also removes their matching items in
// the skip list, which has the deletion flag set already").
func (db *DB) gcJudge(rec *aof.Record, ref aof.Ref) bool {
	if rec.IsVersionDrop() {
		// Version-retention meta-records are a few bytes each and must
		// stay durable for recovery; always relocate.
		return true
	}
	seg, it := lookup(db, rec.Key, rec.Version)
	if rec.IsTombstone() {
		// A tombstone is needed until the deletion it records is folded
		// into the data record itself (FlagDropped) or the item is gone.
		return it != nil && seg.deleted(it) && !it.has(fOnDiskDeleted)
	}
	if it == nil || it.ref != ref {
		return false // item removed earlier, or this is a stale copy
	}
	if !seg.deleted(it) {
		return true // live data: relocate
	}
	// Deleted: keep only if a live newer deduplicated entry still refers
	// to this value ("invalid key-value pairs that are referred by later
	// version keys"). Fold the deletion into the relocated record so it
	// survives recovery without the tombstone. Otherwise the record was
	// marked dead when its item, or its last live referrer, was deleted.
	if it.refs > 0 {
		rec.Flags |= aof.FlagDropped
		return true
	}
	db.removeLocked(seg, string(rec.Key), it)
	return false
}

// gcRelocated updates the memtable offset of a relocated record (paper
// Fig. 2, GC step 5). Runs with db.mu held exclusively.
func (db *DB) gcRelocated(rec aof.Record, old, new aof.Ref) {
	if rec.IsTombstone() || rec.IsVersionDrop() {
		return // no item carries a tombstone ref
	}
	if _, it := lookup(db, rec.Key, rec.Version); it != nil && it.ref == old {
		it.ref = new
		if rec.IsDropped() {
			it.flags |= fOnDiskDeleted
		}
	}
}
