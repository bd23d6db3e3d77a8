package mint

import (
	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/lsm"
	"directload/internal/ssd"
)

// Engine is the per-node storage engine contract. Both QinDB
// (internal/core) and the LevelDB-style baseline (internal/lsm) satisfy
// it, which lets whole-system experiments swap the storage layer while
// keeping Mint's placement and replication logic identical —
// the "with vs without DirectLoad" comparison of Fig. 10a. A call
// returns no virtual time: it advances the node's device clock, and the
// caller reads that clock.
type Engine interface {
	Put(key []byte, version uint64, value []byte, dedup bool) error
	Get(key []byte, version uint64) ([]byte, error)
	Del(key []byte, version uint64) error
	DropVersion(version uint64) (int, error)
	Close() error
}

// QinDBEngine is a core.DB as an Engine. core's calls still return the
// virtual time they spent, which the device clock already holds, so
// QinDBEngine drops it.
type QinDBEngine struct{ *core.DB }

func (e QinDBEngine) Put(key []byte, version uint64, value []byte, dedup bool) error {
	_, err := e.DB.Put(key, version, value, dedup)
	return err
}

func (e QinDBEngine) Get(key []byte, version uint64) ([]byte, error) {
	val, _, err := e.DB.Get(key, version)
	return val, err
}

func (e QinDBEngine) Del(key []byte, version uint64) error {
	_, err := e.DB.Del(key, version)
	return err
}

func (e QinDBEngine) DropVersion(version uint64) (int, error) {
	n, _, err := e.DB.DropVersion(version)
	return n, err
}

// EngineStack bundles a node's engine with the flash it runs on.
type EngineStack struct {
	Engine Engine
	// Device is the node's flash: its clock is the node's virtual time,
	// and its firmware counters are the node's I/O.
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
		return &EngineStack{Engine: QinDBEngine{db}, Device: dev, UsedBytes: fs.UsedBytes}, nil
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
		return &EngineStack{Engine: db, Device: dev, UsedBytes: fs.UsedBytes}, nil
	}
}
