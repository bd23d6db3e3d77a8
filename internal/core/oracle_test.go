package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"directload/internal/aof"
)

// oracle mirrors what Get must answer for every (key, version) a random
// op stream touched: the model the random-op tests check the engine
// against, across GC, checkpoints and Close→Open cycles.
type oracle map[string]map[uint64]*oracleVal

// oracleVal is one (key, version)'s state.
type oracleVal struct {
	val     []byte
	dedup   bool
	base    uint64 // resolved at put time, like the engine
	hasBase bool
	deleted bool
}

// oracleShape bounds a random op stream.
type oracleShape struct {
	keys, versions, valMax int
}

func oracleKey(i int) string { return fmt.Sprintf("key-%04d", i) }

// resolveBase mirrors the engine's PUT-time binding: walk versions below
// ver in descending order, skipping deleted entries; the first live
// non-dedup entry is the base, and a live dedup entry shortcuts to its
// own base.
func (o oracle) resolveBase(key string, ver uint64) (uint64, bool) {
	var vers []uint64
	for v := range o[key] {
		if v < ver {
			vers = append(vers, v)
		}
	}
	sort.Slice(vers, func(i, j int) bool { return vers[i] > vers[j] })
	for _, v := range vers {
		m := o[key][v]
		if m.deleted {
			continue
		}
		if !m.dedup {
			return v, true
		}
		if m.hasBase {
			return m.base, true
		}
	}
	return 0, false
}

// expected resolves what Get should return: a dedup entry reads the
// value currently stored under its bound base.
func (o oracle) expected(key string, ver uint64) ([]byte, bool) {
	mv := o[key][ver]
	if mv == nil || mv.deleted {
		return nil, false
	}
	if !mv.dedup {
		return mv.val, true
	}
	if !mv.hasBase {
		return nil, false
	}
	base := o[key][mv.base]
	if base == nil || base.dedup {
		return nil, false
	}
	return base.val, true
}

// apply drives n random operations through db and o alike: half plain
// puts, a fifth dedup puts, a fifth deletes (which must fail exactly
// when the oracle holds nothing live), and a rare whole-version drop.
func (o oracle) apply(t *testing.T, db *DB, rng *rand.Rand, n int, sh oracleShape) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := oracleKey(rng.Intn(sh.keys))
		ver := uint64(rng.Intn(sh.versions) + 1)
		switch op := rng.Intn(10); {
		case op < 7: // put, dedup for op 5 and 6
			mv := &oracleVal{dedup: op >= 5}
			if mv.dedup {
				mv.base, mv.hasBase = o.resolveBase(k, ver)
			} else {
				mv.val = make([]byte, rng.Intn(sh.valMax)+1)
				rng.Read(mv.val)
			}
			if _, err := db.Put([]byte(k), ver, mv.val, mv.dedup); err != nil {
				t.Fatalf("Put(%s/%d, dedup=%v): %v", k, ver, mv.dedup, err)
			}
			if o[k] == nil {
				o[k] = map[uint64]*oracleVal{}
			}
			o[k][ver] = mv
		case op < 9:
			mv := o[k][ver]
			_, err := db.Del([]byte(k), ver)
			if mv == nil || mv.deleted {
				if err == nil {
					t.Fatalf("Del(%s/%d) succeeded, oracle holds nothing live", k, ver)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Del(%s/%d): %v", k, ver, err)
			}
			mv.deleted = true
		default:
			if rng.Intn(4) != 0 {
				continue
			}
			if _, _, err := db.DropVersion(ver); err != nil {
				t.Fatalf("DropVersion(%d): %v", ver, err)
			}
			for _, vers := range o {
				if mv := vers[ver]; mv != nil {
					mv.deleted = true
				}
			}
		}
	}
}

// check compares Get of every key and version in the shape against o.
func (o oracle) check(t *testing.T, db *DB, sh oracleShape) {
	t.Helper()
	for i := 0; i < sh.keys; i++ {
		k := oracleKey(i)
		for ver := uint64(1); ver <= uint64(sh.versions); ver++ {
			want, ok := o.expected(k, ver)
			got, _, err := db.Get([]byte(k), ver)
			switch {
			case ok && err != nil:
				t.Fatalf("Get(%s/%d) = %v, oracle has %d bytes", k, ver, err, len(want))
			case ok && !bytes.Equal(got, want):
				t.Fatalf("Get(%s/%d) value mismatch: got %d bytes, want %d", k, ver, len(got), len(want))
			case !ok && err == nil && o[k][ver] != nil && !o[k][ver].deleted:
				// A broken dedup chain may differ only by its error.
				t.Fatalf("Get(%s/%d) succeeded, oracle expects failure", k, ver)
			}
		}
	}
}

// TestOracleRounds is a seeded db_stress: rounds of random puts, dedup
// puts, deletes and version drops with values up to 16 KB, automatic
// checkpoints, GC drained in about half the rounds, and a Close→Open
// cycle after each, checking every answer against the oracle before and
// after the reopen.
func TestOracleRounds(t *testing.T) {
	sh := oracleShape{keys: 40, versions: 6, valMax: 16 << 10}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fs := testFS(t, 1024)
			opts := Options{
				AOF:                  aof.Config{FileSize: 1 << 20, GCThreshold: 0.25},
				CheckpointEveryBytes: 512 << 10,
			}
			db, err := Open(fs, opts)
			if err != nil {
				t.Fatal(err)
			}
			o := oracle{}
			for round := 1; round <= 5; round++ {
				o.apply(t, db, rng, 1000, sh)
				o.check(t, db, sh)
				if rng.Intn(2) == 0 {
					if _, err := db.CollectAll(); err != nil {
						t.Fatalf("round %d: CollectAll: %v", round, err)
					}
				}
				checkLiveBytes(t, db)
				if err := db.Close(); err != nil {
					t.Fatalf("round %d: Close: %v", round, err)
				}
				if db, err = Open(fs, opts); err != nil {
					t.Fatalf("round %d: reopen: %v", round, err)
				}
				o.check(t, db, sh)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
