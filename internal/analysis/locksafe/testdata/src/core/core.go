// Package core is a fixture for the engine's chunked lock holds: a pass
// that locks, works through a bounded batch, unlocks and locks again must
// release on every way out of the loop, whether the lock is the mutex
// itself, a sync.Locker handed in, or a wrapper type of the package's own.
package core

import (
	"errors"
	"sync"
)

var errStop = errors.New("stop")

type DB struct {
	mu   sync.RWMutex
	excl timedLock
	n    int
}

// timedLock wraps the exclusive side of a mutex. Its Lock returns with
// the mutex held — that is what a Lock method is for — and is not flagged.
type timedLock struct {
	mu *sync.RWMutex
}

func (l *timedLock) Lock()   { l.mu.Lock() }
func (l *timedLock) Unlock() { l.mu.Unlock() }

// lockAndLeave is not a Lock method: returning with the mutex held is a
// finding.
func (l *timedLock) lockAndLeave() {
	l.mu.Lock()
} // want `function can return with l.mu still locked`

// GoodChunks holds the lock a batch at a time and releases it before
// every return.
func (db *DB) GoodChunks(batches [][]int, apply func(int) error) error {
	for _, batch := range batches {
		db.mu.Lock()
		for _, item := range batch {
			if err := apply(item); err != nil {
				db.mu.Unlock()
				return err
			}
			db.n++
		}
		db.mu.Unlock()
	}
	db.mu.Lock()
	db.n = 0
	db.mu.Unlock()
	return nil
}

// BadChunks forgets the lock on the error path out of a batch.
func (db *DB) BadChunks(batches [][]int, apply func(int) error) error {
	for _, batch := range batches {
		db.mu.Lock()
		for _, item := range batch {
			if err := apply(item); err != nil {
				return err // want `return with db.mu still locked`
			}
			db.n++
		}
		db.mu.Unlock()
	}
	return nil
}

// GoodLocker is the same loop over a lock handed in as a sync.Locker,
// letting readers through in the middle of a long batch.
func GoodLocker(lk sync.Locker, batch []int, apply func(int) error) error {
	lk.Lock()
	for i, item := range batch {
		if i%8 == 7 {
			lk.Unlock()
			lk.Lock()
		}
		if err := apply(item); err != nil {
			lk.Unlock()
			return err
		}
	}
	lk.Unlock()
	return nil
}

// BadLocker returns early with the handed-in lock held.
func BadLocker(lk sync.Locker, batch []int, apply func(int) error) error {
	lk.Lock()
	for _, item := range batch {
		if apply(item) != nil {
			return errStop // want `return with lk still locked`
		}
	}
	lk.Unlock()
	return nil
}

// BadWrapper returns early holding the package's own lock type, and
// parks on a channel under it.
func (db *DB) BadWrapper(ready chan struct{}) error {
	db.excl.Lock()
	if db.n == 0 {
		return errStop // want `return with db.excl still locked`
	}
	<-ready // want `channel receive while holding db.excl`
	db.excl.Unlock()
	return nil
}

// GoodWrapper releases the wrapper on both paths.
func (db *DB) GoodWrapper() error {
	db.excl.Lock()
	if db.n == 0 {
		db.excl.Unlock()
		return errStop
	}
	db.n--
	db.excl.Unlock()
	return nil
}
