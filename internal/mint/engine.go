package mint

import (
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/lsm"
	"directload/internal/ssd"
)

// Engine is the per-node storage engine contract. Both QinDB
// (internal/core) and the LevelDB-style baseline (internal/lsm) satisfy
// it, which lets whole-system experiments swap the storage layer while
// keeping Mint's placement, replication and recovery logic identical —
// the "with vs without DirectLoad" comparison of Fig. 10a.
type Engine interface {
	Put(key []byte, version uint64, value []byte, dedup bool) (time.Duration, error)
	Get(key []byte, version uint64) ([]byte, time.Duration, error)
	Del(key []byte, version uint64) (time.Duration, error)
	DropVersion(version uint64) (int, time.Duration, error)
	Has(key []byte, version uint64) bool
	Close() error
}

// EngineStats is the engine-agnostic per-node summary Mint aggregates.
type EngineStats struct {
	Keys           int
	UserWriteBytes int64
	DiskBytes      int64
	GCRuns         int64
}

// EngineStack bundles a node's engine with the hooks Mint needs for
// recovery and accounting.
type EngineStack struct {
	Engine Engine
	// Reopen recovers the engine over the same flash after a crash.
	Reopen func() (Engine, error)
	// Stats summarizes the engine.
	Stats func() EngineStats
	// Device exposes the node's flash (clock, firmware counters).
	Device *ssd.Device
	// UsedBytes reports physical flash occupied.
	UsedBytes func() int64
}

// EngineFactory builds one node's storage stack.
type EngineFactory func(capacity int64, seed int64) (*EngineStack, error)

// QinDBFactory returns the paper's stack: QinDB over block-aligned
// native flash. A zero opts selects the defaults.
func QinDBFactory(opts core.Options) EngineFactory {
	return func(capacity int64, _ int64) (*EngineStack, error) {
		if opts.AOF.FileSize == 0 {
			opts.AOF = aof.DefaultConfig()
		}
		dev, err := ssd.NewDevice(ssd.DefaultConfig(capacity))
		if err != nil {
			return nil, err
		}
		fs := blockfs.NewNativeFS(dev)
		db, err := core.Open(fs, opts)
		if err != nil {
			return nil, err
		}
		stack := &EngineStack{Device: dev, UsedBytes: fs.UsedBytes}
		stack.Engine = db
		stack.Reopen = func() (Engine, error) {
			if err := db.Close(); err != nil {
				return nil, err
			}
			ndb, err := core.Open(fs, opts)
			if err != nil {
				return nil, err
			}
			db = ndb
			return ndb, nil
		}
		stack.Stats = func() EngineStats {
			st := db.Stats()
			return EngineStats{
				Keys:           st.Keys,
				UserWriteBytes: st.UserWriteBytes,
				DiskBytes:      st.Store.DiskBytes,
				GCRuns:         st.Store.GCRuns,
			}
		}
		return stack, nil
	}
}

// LSMFactory returns the baseline stack: a LevelDB-style engine over a
// conventional page-mapped FTL.
func LSMFactory(opts lsm.Options) EngineFactory {
	return func(capacity int64, seed int64) (*EngineStack, error) {
		if opts.MemtableSize == 0 {
			opts = lsm.DefaultOptions()
		}
		opts.Seed = seed
		dev, err := ssd.NewDevice(ssd.DefaultConfig(capacity))
		if err != nil {
			return nil, err
		}
		cfg := dev.Config()
		logical := (cfg.Blocks - cfg.Blocks/8 - 4) * cfg.PagesPerBlock
		ftl, err := ssd.NewFTL(dev, logical)
		if err != nil {
			return nil, err
		}
		fs := blockfs.NewFTLFS(ftl)
		db, err := lsm.Open(fs, opts)
		if err != nil {
			return nil, err
		}
		stack := &EngineStack{Device: dev, UsedBytes: fs.UsedBytes}
		stack.Engine = db
		stack.Reopen = func() (Engine, error) {
			if err := db.Close(); err != nil {
				return nil, err
			}
			ndb, err := lsm.Open(fs, opts)
			if err != nil {
				return nil, err
			}
			db = ndb
			return ndb, nil
		}
		stack.Stats = func() EngineStats {
			st := db.Stats()
			return EngineStats{
				UserWriteBytes: st.UserWriteBytes,
				DiskBytes:      st.DiskBytes,
				GCRuns:         st.Compactions,
			}
		}
		return stack, nil
	}
}
