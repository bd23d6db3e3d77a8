// Package experiments implements the paper's evaluation section: every
// figure of §4 and the §5 RUM analysis has a runner here that generates
// the workload, drives the system, and returns the same series/statistics
// the paper plots. cmd/figures is a thin wrapper around these runners,
// and this package's tests assert the shapes they produce.
package experiments

import (
	"fmt"
	"time"

	"directload/internal/aof"
	"directload/internal/core"
	"directload/internal/lsm"
	"directload/internal/mint"
	"directload/internal/workload"
)

// EngineKind selects the storage engine under test.
type EngineKind int

// Engines under test.
const (
	QinDB EngineKind = iota
	LevelDB
)

func (k EngineKind) String() string {
	if k == QinDB {
		return "QinDB"
	}
	return "LevelDB"
}

// newStack builds a fresh single-node storage stack of the given kind.
//
// The experiments run at laptop scale (tens of MB instead of the paper's
// hundreds of GB), so both engines' structural constants are scaled by
// the same factor to keep tree depth and file counts equivalent to a
// production deployment: LevelDB's 4 MB memtable / 10 MB L1 / 2 MB files
// become 512 KB / 1.25 MB / 256 KB (scale 1/8), and QinDB's 64 MB AOFs
// become 16 MB. The ratios the paper measures (write amplification, user
// throughput, occupancy) are preserved under this scaling; absolute MB/s
// are not comparable to the paper's testbed and are not claimed.
func newStack(kind EngineKind, capacity int64, seed int64) (*mint.EngineStack, error) {
	switch kind {
	case QinDB:
		opts := core.DefaultOptions()
		opts.AOF = aof.Config{FileSize: 16 << 20, GCThreshold: 0.25}
		return mint.QinDBFactory(opts)(capacity, seed)
	case LevelDB:
		opts := lsm.Options{
			MemtableSize:        512 << 10,
			L0CompactionTrigger: 4,
			L1MaxBytes:          1280 << 10,
			LevelMultiplier:     10,
			TargetFileSize:      256 << 10,
			MaxLevels:           7,
			// LevelDB's block cache scales with the cache:data ratio,
			// not the structural 1/8 factor: the paper's 8 MB cache
			// fronts tens of GB (~0.02% coverage), so its scaled
			// equivalent over our ~6 MB working set is a few KB —
			// effectively negligible, exactly as in the paper's runs.
			BlockCacheBytes: 16 << 10,
		}
		return mint.LSMFactory(opts)(capacity, seed)
	default:
		return nil, fmt.Errorf("experiments: unknown engine %d", kind)
	}
}

// Fig5Config shapes the write-amplification microbenchmark (paper
// §4.1.1): a summary-index workload of 20-byte keys and ~20 KB values,
// inserted version after version while a deletion pass retires the
// oldest version once four are resident — the paper's "8 write threads
// including 1 deletion thread and 7 insertion threads", serialized.
type Fig5Config struct {
	Keys           int   // distinct keys per version
	ValueSize      int   // mean value size (paper: 20 KB)
	Versions       int   // paper: 11
	Retain         int   // paper: 4
	DeviceCapacity int64 // simulated SSD size
	Seed           int64
	// Window is the virtual-time sampling window for the throughput
	// series (the paper samples minutes of wall time; the simulated
	// device compresses time, so the default is 200 ms of device time).
	Window time.Duration
}

// DefaultFig5Config returns a laptop-scale run (~45 MB of user writes).
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		Keys:           200,
		ValueSize:      20 << 10,
		Versions:       11,
		Retain:         4,
		DeviceCapacity: 2 << 30,
		Seed:           1,
		Window:         20 * time.Millisecond,
	}
}

// Fig5Result carries everything Figs. 5, 6 and 7 plot for one engine.
type Fig5Result struct {
	Engine string

	// Per-window MB/s series over virtual minutes (Figs. 5a/5b, 6a/6b).
	UserWrite *Series
	SysWrite  *Series
	SysRead   *Series
	// Storage occupation in GB over virtual minutes (Fig. 7).
	Storage *Series

	// Aggregates.
	UserBytes     int64
	SysWriteBytes int64
	SysReadBytes  int64
	WriteAmp      float64 // SysWriteBytes / UserBytes
	UserMBps      float64 // mean of the user-write series
	SysWriteMBps  float64
	SysReadMBps   float64
	UserStdDev    float64 // Fig. 6's metric (MB/s over windows)
	UserCV        float64 // stddev normalized by the mean: comparable
	SysWriteCV    float64 // across engines whose rates differ
	FinalDiskGB   float64
	Elapsed       time.Duration // virtual device time
}

// RunFig5 executes the write-amplification experiment on one engine.
func RunFig5(kind EngineKind, cfg Fig5Config) (Fig5Result, error) {
	if cfg.Keys == 0 {
		cfg = DefaultFig5Config()
	}
	stack, err := newStack(kind, cfg.DeviceCapacity, cfg.Seed)
	if err != nil {
		return Fig5Result{}, err
	}
	defer stack.Engine.Close()

	res := Fig5Result{
		Engine:    kind.String(),
		UserWrite: &Series{},
		SysWrite:  &Series{},
		SysRead:   &Series{},
		Storage:   &Series{},
	}
	userWin := NewThroughputWindow(cfg.Window, res.UserWrite)
	sysWWin := NewThroughputWindow(cfg.Window, res.SysWrite)
	sysRWin := NewThroughputWindow(cfg.Window, res.SysRead)
	dev := stack.Device
	dev.SetTraceFuncs(
		func(now time.Duration, n int64) { sysWWin.Record(now, n) },
		func(now time.Duration, n int64) { sysRWin.Record(now, n) },
	)
	defer dev.SetTraceFuncs(nil, nil)

	gen, err := workload.NewGenerator(workload.KVConfig{
		Keys:            cfg.Keys,
		ValueSize:       cfg.ValueSize,
		ValueSizeStdDev: cfg.ValueSize / 8,
		DupRatio:        0, // Fig. 5 measures raw insert churn, not dedup
		Seed:            cfg.Seed,
	})
	if err != nil {
		return res, err
	}

	sampleStorage := func() {
		res.Storage.Append(dev.Now().Minutes(), float64(stack.UsedBytes())/(1<<30))
	}
	var userBytes int64
	storageEvery := cfg.Keys / 4
	if storageEvery == 0 {
		storageEvery = 1
	}
	for v := 1; v <= cfg.Versions; v++ {
		// The deletion thread runs concurrently with the insertion
		// threads in the paper; serialized here, each insert of the new
		// version is interleaved with the delete of the same key's
		// retired version.
		var delVersion uint64
		if v > cfg.Retain {
			delVersion = uint64(v - cfg.Retain)
		}
		i := 0
		err := gen.NextVersion(func(e workload.Entry) error {
			if _, err := stack.Engine.Put(e.Key, e.Version, e.Value, false); err != nil {
				return err
			}
			n := int64(len(e.Key) + len(e.Value))
			userBytes += n
			userWin.Record(dev.Now(), n)
			if delVersion > 0 {
				if _, err := stack.Engine.Del(e.Key, delVersion); err != nil {
					return fmt.Errorf("del v%d key %q: %w", delVersion, e.Key, err)
				}
			}
			if i%storageEvery == 0 {
				sampleStorage()
			}
			i++
			return nil
		})
		if err != nil {
			return res, err
		}
		sampleStorage()
	}
	userWin.Flush()
	sysWWin.Flush()
	sysRWin.Flush()
	sampleStorage()

	st := dev.Stats()
	res.UserBytes = userBytes
	res.SysWriteBytes = st.SysWriteBytes
	res.SysReadBytes = st.SysReadBytes
	res.WriteAmp = st.WriteAmplification(userBytes)
	var sysWSD float64
	res.UserMBps, res.UserStdDev, _, _ = res.UserWrite.YStats()
	res.SysWriteMBps, sysWSD, _, _ = res.SysWrite.YStats()
	res.SysReadMBps, _, _, _ = res.SysRead.YStats()
	if res.UserMBps > 0 {
		res.UserCV = res.UserStdDev / res.UserMBps
	}
	if res.SysWriteMBps > 0 {
		res.SysWriteCV = sysWSD / res.SysWriteMBps
	}
	res.FinalDiskGB = float64(stack.UsedBytes()) / (1 << 30)
	res.Elapsed = dev.Now()
	return res, nil
}

// Fig5Pair runs both engines on identical workloads — the side-by-side
// comparison of Figs. 5a vs 5b (and the inputs to Figs. 6 and 7).
func Fig5Pair(cfg Fig5Config) (qindb, leveldb Fig5Result, err error) {
	qindb, err = RunFig5(QinDB, cfg)
	if err != nil {
		return
	}
	leveldb, err = RunFig5(LevelDB, cfg)
	return
}
