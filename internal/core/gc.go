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

// collectLocked garbage-collects one file. Runs with wmu held and db.mu free: the store takes db.mu
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
	gone := db.victimLocked(id)
	for i := 0; i < len(gone); i += aof.GCChunk {
		db.excl.Lock()
		for _, g := range gone[i:min(i+aof.GCChunk, len(gone))] {
			db.removeLocked(g.seg, g.key, g.it)
		}
		db.excl.Unlock()
	}
	for i, g := range gone { // a segment's items are listed together
		if i == 0 || g.seg != gone[i-1].seg {
			g.seg.compact()
		}
	}
	clear(gone) // the list is kept for the next pass, the items it names are not
	cost, err := db.store.CollectFile(id, &db.gcKeep, &db.excl)
	clear(db.gcKeep.recs)
	if err == nil {
		delete(db.tombs, id) // every one was relocated
	}
	return cost, err
}

// keepItem is a record a GC pass keeps: a data record with its item and
// segment, or a deletion record, whose it is nil.
type keepItem struct {
	ref aof.Ref
	seg *segment
	it  *item
}

// keepList is the list of records a GC pass keeps, ascending by offset,
// as the store reads and updates it (aof.Kept). The DB keeps one from
// pass to pass.
type keepList struct {
	db   *DB
	recs []keepItem
}

func (l *keepList) Len() int { return len(l.recs) }

// At returns the i-th record's ref, and folds a deletion into a data
// record kept only because a live newer deduplicated entry still reads it
// ("invalid key-value pairs that are referred by later version keys"), so
// that the deletion survives recovery without the tombstone. A deletion
// record, tombstone or version drop, is what recovery replays until a
// checkpoint holds the deletion, and is copied as it is.
func (l *keepList) At(i int) (aof.Ref, bool) {
	k := l.recs[i]
	return k.ref, k.it != nil && k.seg.deleted(k.it)
}

// Moved re-points the i-th record's item at new (paper Fig. 2, GC step
// 5), or holds a deletion record's copy in its new file. Runs with db.mu
// held exclusively (one of CollectFile's chunk holds).
func (l *keepList) Moved(i int, new aof.Ref) {
	k := l.recs[i]
	if k.it == nil {
		l.db.tombs[new.File] = append(l.db.tombs[new.File], new)
		return
	}
	k.it.ref = new
	if k.seg.deleted(k.it) {
		k.it.flags |= fOnDiskDeleted
	}
}

// goneItem is a memtable item a GC pass removes.
type goneItem struct {
	seg *segment
	key string
	it  *item
}

// victimLocked walks the memtable for the items whose record lies in file
// id. db.gcKeep gets those that are live or referenced, with the deletion
// records held in the file, ascending by offset; gone holds the others.
// Both lists are the DB's, reused by the next pass. Runs with wmu held.
func (db *DB) victimLocked(id uint32) (gone []goneItem) {
	kept, gone := db.gcKeep.recs[:0], db.gcGone[:0]
	for _, ref := range db.tombs[id] {
		kept = append(kept, keepItem{ref: ref})
	}
	for _, seg := range db.segs {
		if seg.first > id {
			continue // every record of the version lies in a newer file
		}
		for k, it := range seg.items {
			switch {
			case it.ref.File != id:
			case !seg.deleted(it) || it.refs > 0:
				kept = append(kept, keepItem{it.ref, seg, it})
			default:
				gone = append(gone, goneItem{seg, k, it})
			}
		}
	}
	slices.SortFunc(kept, func(a, b keepItem) int { return cmp.Compare(a.ref.Off, b.ref.Off) })
	db.gcKeep.recs, db.gcGone = kept, gone
	return gone
}
