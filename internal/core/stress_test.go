package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestStressConcurrentMixed hammers the engine with concurrent writers,
// readers, version retirement and explicit GC, then verifies the final
// state. Run with -race to validate the locking discipline.
func TestStressConcurrentMixed(t *testing.T) {
	db := openTestDB(t, 2048)
	defer db.Close()
	const keys = 64
	// Seed version 1 so readers always have something.
	for i := 0; i < keys; i++ {
		mustPut(t, db, fmt.Sprintf("k-%02d", i), 1, fmt.Sprintf("seed-%02d", i), false)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	stop := make(chan struct{})

	// Writers: each owns a version range so they never collide.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			val := make([]byte, 2048)
			for round := 0; round < 30; round++ {
				ver := uint64(10 + w*100 + round)
				for i := 0; i < keys; i++ {
					if _, err := db.Put([]byte(fmt.Sprintf("k-%02d", i)), ver, val, false); err != nil {
						errCh <- fmt.Errorf("writer %d: %w", w, err)
						return
					}
				}
			}
		}(w)
	}
	// Readers: version 1 is never retired in this test.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k-%02d", rng.Intn(keys))
				if _, _, err := db.Get([]byte(key), 1); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	// Checkpointer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := db.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				errCh <- fmt.Errorf("checkpoint: %w", err)
				return
			}
		}
	}()
	// GC goroutine: collects whatever file is due until the workers
	// finish.
	var gcWg sync.WaitGroup
	gcWg.Add(1)
	go func() {
		defer gcWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.CollectOnce(); err != nil && !errors.Is(err, ErrClosed) {
				errCh <- fmt.Errorf("gc: %w", err)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	gcWg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	// Final sanity: seeds still readable, writers' last versions too.
	for i := 0; i < keys; i += 9 {
		mustGet(t, db, fmt.Sprintf("k-%02d", i), 1)
	}
	for w := 0; w < 3; w++ {
		mustGet(t, db, "k-00", uint64(10+w*100+29))
	}
}
