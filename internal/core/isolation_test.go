package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs/blockfstest"
	"directload/internal/metrics"
)

// within runs fn on a goroutine of its own and fails the test if it has
// not returned in five seconds — the verdict on a read that parked
// behind a lock it should not have needed.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s parked", what)
	}
}

// TestGetPassesParkedGCScan parks a GC pass in the middle of its victim
// — in the flash read of the first chunk past 2 MB, the chunks before it
// already relocated — and reads beside it: a live version whose records
// sit in other files, a live deduplicated version whose values sit in the
// victim, relocated and not yet relocated alike, and the retired version.
func TestGetPassesParkedGCScan(t *testing.T) {
	var armed atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	fs := &blockfstest.FS{FS: testFS(t, 1024), ReadAt: func(name string, off int64) {
		if name == "aof-00000000" && off >= 2<<20 && armed.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
	}}
	opts := testOptions()
	opts.AOF.FileSize = 4 << 20
	db, err := openManualGC(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var unpark sync.Once
	defer unpark.Do(func() { close(release) }) // before Close, which waits for the pass

	// Version 1 fills most of the first file; version 2 shares every tenth
	// key's value with it — few enough that the first file falls under the
	// GC threshold once version 1 is retired — and rolls the file over with
	// the others.
	const keys = 180
	value := func(k int, v uint64) []byte {
		val := make([]byte, 20<<10)
		for i := range val {
			val[i] = byte(k + int(v)*7 + i)
		}
		return val
	}
	key := func(k int) []byte { return []byte(fmt.Sprintf("key-%03d", k)) }
	for k := 0; k < keys; k++ {
		if _, err := db.Put(key(k), 1, value(k, 1), false); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < keys; k++ {
		if k%10 == 0 {
			_, err = db.Put(key(k), 2, nil, true)
		} else {
			_, err = db.Put(key(k), 2, value(k, 2), false)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := db.DropVersion(1); err != nil {
		t.Fatal(err)
	}
	if cands := db.store.Candidates(); len(cands) == 0 || cands[0] != 0 {
		t.Fatalf("candidates = %v, want the first file", cands)
	}
	readAll := func() error {
		for k := 0; k < keys; k++ {
			want := value(k, 2)
			if k%10 == 0 {
				want = value(k, 1)
			}
			got, _, err := db.Get(key(k), 2)
			if err != nil {
				return err
			}
			if string(got) != string(want) {
				return fmt.Errorf("key %d version 2: wrong bytes", k)
			}
			if _, _, err := db.Get(key(k), 1); !errors.Is(err, ErrDeleted) && !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("key %d version 1 = %v, want deleted", k, err)
			}
		}
		return nil
	}

	before := db.Stats().Store.AppendedBytes
	armed.Store(true)
	gcDone := make(chan error, 1)
	go func() {
		gcDone <- db.collectOnce()
	}()
	select {
	case <-entered:
	case err := <-gcDone:
		t.Fatalf("pass ended without reading the victim past 2 MB: %v", err)
	}
	within(t, "reads beside a parked GC scan", func() error {
		if db.Stats().Store.AppendedBytes == before {
			return errors.New("parked before anything was relocated")
		}
		return readAll()
	})
	unpark.Do(func() { close(release) })
	if err := <-gcDone; err != nil {
		t.Fatal(err)
	}
	if st := db.Stats().Store; st.GCRuns != 1 {
		t.Fatalf("GCRuns = %d, want 1", st.GCRuns)
	}
	if _, err := fs.Size("aof-00000000"); err == nil {
		t.Fatal("victim still there after the pass")
	}
	if err := readAll(); err != nil {
		t.Fatal(err)
	}
}

// TestRetirementCollectsBesideParkedRead parks a flash read of a live
// record and, beside it, retires the version that fills the first file.
// That file falls below the threshold, and the retirement's own GC pass
// must take it: a read in flight does not put a pass off, so which file
// GC takes, and when, follows from the mutations alone. The read is a
// store-level one and holds no engine lock, so nothing but a rule that
// counts reads could hold the pass back.
func TestRetirementCollectsBesideParkedRead(t *testing.T) {
	var armed atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	fs := &blockfstest.FS{FS: testFS(t, 1024), ReadAt: func(name string, _ int64) {
		if name != "aof-00000000" && armed.CompareAndSwap(true, false) {
			close(parked)
			<-release
		}
	}}
	opts := testOptions()
	opts.AOF.FileSize = 256 << 10
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Ten 20 KB values of version 1 fill most of the first file; version 2
	// tops it up and rolls over into the next two.
	val := bytes.Repeat([]byte{7}, 20<<10)
	for k := 0; k < 10; k++ {
		if _, err := db.Put([]byte(fmt.Sprintf("key-%03d", k)), 1, val, false); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 20; k++ {
		if _, err := db.Put([]byte(fmt.Sprintf("key-%03d", k)), 2, val, false); err != nil {
			t.Fatal(err)
		}
	}
	_, live := lookup(db, "key-019", 2)
	if live == nil || live.ref.File == 0 {
		t.Fatalf("key-019/2 = %+v: want a record outside the first file", live)
	}

	armed.Store(true)
	read := make(chan error, 1)
	go func() {
		_, _, err := db.store.Read(live.ref)
		read <- err
	}()
	<-parked
	within(t, "DropVersion beside a parked read", func() error {
		_, _, err := db.DropVersion(1)
		return err
	})
	st := db.Stats().Store
	close(release)
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	if st.GCRuns != 1 {
		t.Fatalf("GCRuns = %d after the retirement, want 1: the pass was put off behind the parked read", st.GCRuns)
	}
	if _, err := fs.Size("aof-00000000"); err == nil {
		t.Fatal("the first file is still there after the retirement's pass")
	}
}

// TestRetirementHoldsDoNotGrowWithTheVersion retires a version of
// 60,000 keys and one of 600 and counts how many times each retirement
// takes db.mu exclusively — the samples it adds to
// qindb.lock.excl_hold_us. Readers sit out every such hold; retiring
// marks the version's segment in one of them, so the count is the same
// for both sizes. At commit 43d2e07 the items were flagged 256 per hold:
// 237 holds for the larger version.
func TestRetirementHoldsDoNotGrowWithTheVersion(t *testing.T) {
	holds := func(keys int) int64 {
		opts := testOptions()
		opts.Metrics = metrics.NewRegistry()
		db, err := openManualGC(testFS(t, 1024), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for k := 0; k < keys; k++ {
			if _, err := db.Put([]byte(fmt.Sprintf("key-%06d", k)), 1, []byte("old"), false); err != nil {
				t.Fatal(err)
			}
		}
		mustPut(t, db, "key-000000", 2, "new", false)
		hold := opts.Metrics.Histogram("qindb.lock.excl_hold_us")
		before := hold.Snapshot().Count
		n, _, err := db.DropVersion(1)
		if err != nil || n != keys {
			t.Fatalf("DropVersion = %d, %v; want %d retired", n, err, keys)
		}
		held := hold.Snapshot().Count - before
		if db.Has([]byte("key-000001"), 1) || fmt.Sprint(db.Versions()) != "[2]" {
			t.Fatalf("version 1 still visible after retirement: versions %v", db.Versions())
		}
		if got := mustGet(t, db, "key-000000", 2); got != "new" {
			t.Fatalf("Get(key-000000/2) = %q after the retirement", got)
		}
		return held
	}
	small, large := holds(600), holds(60000)
	if small < 1 || large != small {
		t.Fatalf("retiring 600 keys took db.mu exclusively %d times, 60,000 keys %d times; want the same, at least once", small, large)
	}
}

// TestRetirementIsAllOrNothing hammers every key of a version while it is
// retired and collected. Once any reader has been told "deleted", no read
// begun afterwards may return a value of that version; and through the
// retirement, the GC passes it triggers and the publishing around them,
// no read of any version may fail with anything but "deleted".
func TestRetirementIsAllOrNothing(t *testing.T) {
	opts := testOptions()
	opts.AOF.FileSize = 256 << 10
	db, err := Open(testFS(t, 1024), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := newStream(7, 300, 70)
	const keep = 4
	for v := uint64(1); v <= keep; v++ {
		s.publish(t, db, v)
	}

	var victim atomic.Uint64  // the version being retired
	var deleted atomic.Uint64 // highest version some reader has seen deleted
	victim.Store(1)
	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := victim.Load()
				if rng.Intn(4) == 0 {
					v += uint64(1 + rng.Intn(keep-1)) // a version that stays
				}
				k := rng.Intn(s.nKeys)
				wasDeleted := deleted.Load() >= v
				val, _, err := db.Get(streamKey(k), v)
				switch {
				case err == nil && wasDeleted:
					errs <- fmt.Errorf("Get(%d/%d) returned a value after the version had read as deleted", k, v)
					return
				case errors.Is(err, ErrDeleted) || errors.Is(err, ErrNotFound):
					if s.base[v][k] != 0 { // not a single-key delete: the version is going
						for old := deleted.Load(); old < v && !deleted.CompareAndSwap(old, v); old = deleted.Load() {
						}
					}
				case err != nil:
					errs <- fmt.Errorf("Get(%d/%d): %w", k, v, err)
					return
				default:
					if err := s.judge(k, v, val, nil); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	var early uint64
	for v := uint64(keep + 1); v <= keep+6 && early == 0; v++ {
		s.publish(t, db, v)
		s.retire(t, db, v-keep)
		if got := deleted.Load(); got > v-keep {
			early = got
		}
		victim.Store(v - keep + 1)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if early != 0 {
		t.Fatalf("version %d read as deleted before its retirement", early)
	}
	if db.Stats().Store.GCRuns == 0 {
		t.Fatal("no GC pass ran beside the readers")
	}
}

// TestGetLatestAcrossRetirement reads the latest version of keys in a
// loop while their newest version is retired again and again: every key
// has older live versions, so the answer is always a value — the newest
// version's or, once that is going, the one below — and the bytes are
// those of the version GetLatest says it read.
func TestGetLatestAcrossRetirement(t *testing.T) {
	db := openTestDB(t, 256)
	defer db.Close()
	const keys = 200
	value := func(k int, v uint64) string { return fmt.Sprintf("value-%03d@%d", k, v) }
	for v := uint64(1); v <= 3; v++ {
		for k := 0; k < keys; k++ {
			mustPut(t, db, fmt.Sprintf("k-%03d", k), v, value(k, v), false)
		}
	}
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := r; ; k = (k + 1) % keys {
				select {
				case <-stop:
					return
				default:
				}
				val, ver, _, err := db.GetLatest([]byte(fmt.Sprintf("k-%03d", k)))
				if err != nil {
					errs <- fmt.Errorf("GetLatest(k-%03d): %w", k, err)
					return
				}
				if string(val) != value(k, ver) {
					errs <- fmt.Errorf("GetLatest(k-%03d) = %q as version %d", k, val, ver)
					return
				}
			}
		}(r)
	}
	for round := 0; round < 40; round++ {
		v := uint64(4 + round)
		for k := 0; k < keys; k++ {
			mustPut(t, db, fmt.Sprintf("k-%03d", k), v, value(k, v), false)
		}
		if _, _, err := db.DropVersion(v); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestSoakReadersAgainstOracle publishes twelve versions at keep-4 with
// 70 % dedup into AOFs small enough that GC cycles all the way, while
// four readers check every byte of pinned live versions against the
// oracle. Afterwards the hold histogram must show the chunking: more
// exclusive holds than the records GC judged divided by its chunk.
func TestSoakReadersAgainstOracle(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := testOptions()
	opts.AOF.FileSize = 256 << 10
	opts.Metrics = reg
	fs := testFS(t, 1024)
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := newStream(11, 300, 70)
	const versions, keep = 12, 4

	// newest is the last version wholly published; retiring the last
	// version whose retirement has begun. A reader pins one of the keep
	// versions up to newest and accepts "deleted" for it only if its
	// retirement had begun by the time the read came back.
	var newest, retiring atomic.Uint64
	s.publish(t, db, 1)
	newest.Store(1)
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				top := newest.Load()
				v := top - uint64(rng.Intn(int(min(top, keep))))
				k := rng.Intn(s.nKeys)
				val, _, err := db.Get(streamKey(k), v)
				if (errors.Is(err, ErrDeleted) || errors.Is(err, ErrNotFound)) && retiring.Load() >= v {
					continue
				}
				if err := s.judge(k, v, val, err); err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	for v := uint64(2); v <= versions; v++ {
		s.publish(t, db, v)
		newest.Store(v)
		if v > keep {
			retiring.Store(v - keep)
			s.retire(t, db, v-keep)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	s.checkAll(t, db, versions-3, versions-2, versions-1, versions)

	st := db.Stats().Store
	if st.GCRuns < 4 || reads.Load() == 0 {
		t.Fatalf("soak too quiet: %d GC runs, %d reads", st.GCRuns, reads.Load())
	}
	// A pass judges exactly the records the memtable names, and keeps
	// them all: every append that is not a Put, a Del or a retirement's
	// version-drop record is a record GC judged.
	es := db.Stats()
	judged := reg.Counter("aof.appends").Load() - es.Puts - es.Dels - (versions - keep)
	holds := reg.Histogram("qindb.lock.excl_hold_us").Snapshot().Count
	if judged <= 0 || holds < judged/aof.GCChunk {
		t.Fatalf("%d exclusive holds for %d records judged by %d passes: holds were not chunked", holds, judged, st.GCRuns)
	}
}

// TestAbandonedGCPassRecovers fails an append in the middle of a GC pass
// and walks away from the engine. The pass's error must surface with the
// victim still on flash beside the copies already made, and opening the
// same filesystem — no Close in between — must read every live key back
// byte for byte: between two chunks the flash holds what a crash mid-pass
// always left.
func TestAbandonedGCPassRecovers(t *testing.T) {
	var failAt atomic.Int64 // fail the append that brings this to zero; idle below zero
	failAt.Store(-1)
	boom := errors.New("injected append failure")
	base := testFS(t, 1024)
	fs := &blockfstest.FS{FS: base, Append: func(string, []byte) error {
		if failAt.Load() > 0 && failAt.Add(-1) == 0 {
			return boom
		}
		return nil
	}}
	opts := testOptions()
	opts.AOF.FileSize = 256 << 10
	db, err := openManualGC(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Half the entries deduplicated, not the paper's 70 %: the retired
	// versions' values that later ones share stay live, and with fewer of
	// them two retirements leave a file under the threshold that still
	// holds records to relocate.
	s := newStream(3, 300, 50)
	for v := uint64(1); v <= 5; v++ {
		s.publish(t, db, v)
	}
	s.retire(t, db, 1)
	s.retire(t, db, 2)
	cands := db.store.Candidates()
	if len(cands) == 0 {
		t.Fatal("no GC candidate after two retirements")
	}
	victim := fmt.Sprintf("aof-%08d", cands[0])
	appended := db.Stats().Store.AppendedBytes

	failAt.Store(5) // the fifth record the pass re-appends
	if err := db.collectOnce(); !errors.Is(err, boom) {
		t.Fatalf("collectOnce = %v, want the injected failure", err)
	}
	if _, err := base.Size(victim); err != nil {
		t.Fatalf("victim %s gone after a failed pass: %v", victim, err)
	}
	if st := db.Stats().Store; st.GCRuns != 0 || st.AppendedBytes == appended {
		t.Fatalf("want a pass abandoned midway, got %+v (appended %d before)", st, appended)
	}
	// The abandoned engine still answers, from the old copies and the new.
	s.checkAll(t, db, 3, 4, 5)

	db2, err := Open(base, opts)
	if err != nil {
		t.Fatalf("Open over the abandoned store: %v", err)
	}
	defer db2.Close()
	checkMemtable(t, db2)
	s.checkAll(t, db2, 3, 4, 5)
	for k := 0; k < s.nKeys; k += 7 {
		if db2.Has(streamKey(k), 1) || db2.Has(streamKey(k), 2) {
			t.Fatalf("retired version of key %d came back", k)
		}
	}
	if err := db2.collectAll(); err != nil {
		t.Fatal(err)
	}
	s.checkAll(t, db2, 3, 4, 5)
}

// TestDropVersionReturnsGCError fails an append inside the GC pass that
// DropVersion runs, with auto-GC on. DropVersion must return that
// failure — the drop record is appended and the version retired before
// the pass starts, so the drop itself has taken effect — and opening the
// same filesystem must read the dropped version deleted and every kept
// version back byte for byte.
func TestDropVersionReturnsGCError(t *testing.T) {
	var failAt atomic.Int64 // fail the append that brings this to zero; idle below zero
	failAt.Store(-1)
	boom := errors.New("injected append failure")
	base := testFS(t, 1024)
	fs := &blockfstest.FS{FS: base, Append: func(string, []byte) error {
		if failAt.Load() > 0 && failAt.Add(-1) == 0 {
			return boom
		}
		return nil
	}}
	opts := testOptions()
	opts.AOF.FileSize = 256 << 10
	db, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(3, 300, 50)
	for v := uint64(1); v <= 5; v++ {
		s.publish(t, db, v)
	}
	s.retire(t, db, 1)
	runs := db.Stats().Store.GCRuns

	// The first append is the drop's own record; the fifth is inside the
	// pass the drop makes due.
	failAt.Store(5)
	s.gone[2] = true
	if _, _, err := db.DropVersion(2); !errors.Is(err, boom) {
		t.Fatalf("DropVersion(2) = %v, want the injected failure of its GC pass", err)
	}
	if failAt.Load() != 0 {
		t.Fatal("the injected failure was never reached")
	}
	if st := db.Stats().Store; st.GCRuns != runs {
		t.Fatalf("GC runs %d -> %d: want the pass abandoned midway", runs, st.GCRuns)
	}
	for k := 0; k < s.nKeys; k++ {
		if db.Has(streamKey(k), 2) {
			t.Fatalf("key %d of the dropped version still reads", k)
		}
	}
	s.checkAll(t, db, 3, 4, 5)

	db2, err := Open(base, opts)
	if err != nil {
		t.Fatalf("Open after the failed pass: %v", err)
	}
	defer db2.Close()
	checkMemtable(t, db2)
	s.checkAll(t, db2, 3, 4, 5)
	for k := 0; k < s.nKeys; k++ {
		if db2.Has(streamKey(k), 1) || db2.Has(streamKey(k), 2) {
			t.Fatalf("retired version of key %d came back", k)
		}
	}
}
