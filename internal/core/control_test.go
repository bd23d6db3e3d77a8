package core

import "directload/internal/blockfs"

// The engine runs its own GC and checkpoints: Del and DropVersion run the
// GC pass they make due, and Options.CheckpointEveryBytes sets the
// checkpoint period. The controls below let a test choose the moment of
// either instead.

// openManualGC opens a DB whose Del and DropVersion run no GC pass; the
// test collects with collectOnce or collectAll.
func openManualGC(fs blockfs.FS, opts Options) (*DB, error) {
	db, err := Open(fs, opts)
	if err == nil {
		db.manualGC = true
	}
	return db, err
}

// collectOnce collects the first GC candidate, if there is one.
func (db *DB) collectOnce() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if cands := db.store.Candidates(); len(cands) > 0 {
		_, err := db.collectLocked(cands[0])
		return err
	}
	return nil
}

// collectAll collects until no file is a candidate.
func (db *DB) collectAll() error {
	for {
		if len(db.store.Candidates()) == 0 {
			return nil
		}
		if err := db.collectOnce(); err != nil {
			return err
		}
	}
}

// checkpoint writes a checkpoint now.
func (db *DB) checkpoint() error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed {
		return ErrClosed
	}
	_, err := db.checkpointLocked()
	return err
}
