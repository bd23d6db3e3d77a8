package experiments

import (
	"errors"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/lsm"
	"directload/internal/metrics"
	"directload/internal/mint"
	"directload/internal/ssd"
	"directload/internal/workload"
)

// The ablations (DESIGN.md §7: -fig rum, iface and traceback) quantify
// the paper's §5 RUM-conjecture discussion: lazy GC trades storage
// space (M) for write throughput (U); block-aligned native flash removes
// the hardware write amplification a page-mapped FTL would re-introduce;
// recovery time is the cost of keeping the index only in memory.

// RUMPoint is one cell of the RUM trade-off table: a GC threshold and
// the read/update/memory costs measured under it.
type RUMPoint struct {
	GCThreshold  float64
	WriteAmp     float64 // U: device writes per user byte
	ReadMeanUs   float64 // R: mean GET device time, microseconds
	DiskGB       float64 // M: flash occupied at the end
	GCRuns       int64
	RecoveryTime time.Duration // full AOF scan estimate
}

// RunRUMAblation sweeps the lazy-GC occupancy threshold on QinDB under
// the Fig. 5 churn workload, then measures read cost and recovery scan
// time. Higher thresholds collect more eagerly: less disk, more
// re-append write amplification.
func RunRUMAblation(cfg Fig5Config, thresholds []float64) ([]RUMPoint, error) {
	if cfg.Keys == 0 {
		cfg = DefaultFig5Config()
	}
	if len(thresholds) == 0 {
		thresholds = []float64{0.10, 0.25, 0.50, 0.75}
	}
	var out []RUMPoint
	for _, th := range thresholds {
		p, err := runRUMPoint(cfg, th)
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

func runRUMPoint(cfg Fig5Config, threshold float64) (RUMPoint, error) {
	p := RUMPoint{GCThreshold: threshold}
	opts := core.DefaultOptions()
	opts.AOF = aof.Config{FileSize: 16 << 20, GCThreshold: threshold}
	db, stack, err := newQinDB(cfg.DeviceCapacity, opts)
	if err != nil {
		return p, err
	}
	defer db.Close()
	dev := stack.Device
	gen, userBytes, err := loadChurn(cfg, db)
	if err != nil {
		return p, err
	}
	// R: read every live key once at the newest version.
	hist := metrics.NewHistogram()
	last := uint64(cfg.Versions)
	for i := 0; i < cfg.Keys; i++ {
		us, err := getMicros(db, dev, gen.Key(i), last)
		if err != nil {
			return p, err
		}
		hist.Observe(us)
	}
	st := dev.Stats()
	p.WriteAmp = st.WriteAmplification(userBytes)
	p.ReadMeanUs = hist.Mean()
	p.DiskGB = float64(stack.UsedBytes()) / (1 << 30)
	p.GCRuns = db.Stats().Store.GCRuns
	// Recovery: the scan reads every flash byte the store occupies.
	lat := dev.Config().Latency
	pages := stack.UsedBytes() / int64(dev.Config().PageSize)
	p.RecoveryTime = time.Duration(pages) * lat.PageRead / time.Duration(lat.Channels)
	return p, nil
}

// loadChurn writes the Fig. 5 churn workload into e: cfg.Versions full
// versions of fresh values, each version dropped once cfg.Retain newer
// ones exist. It returns the generator (for its keys) and the user bytes
// written.
func loadChurn(cfg Fig5Config, e mint.Engine) (*workload.Generator, int64, error) {
	gen, err := workload.NewGenerator(workload.KVConfig{
		Keys: cfg.Keys, ValueSize: cfg.ValueSize,
		ValueSizeStdDev: cfg.ValueSize / 8, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, 0, err
	}
	var userBytes int64
	for v := 1; v <= cfg.Versions; v++ {
		err := gen.NextVersion(func(en workload.Entry) error {
			userBytes += int64(len(en.Key) + len(en.Value))
			return e.Put(en.Key, en.Version, en.Value, false)
		})
		if err != nil {
			return nil, 0, err
		}
		if v > cfg.Retain {
			if _, err := e.DropVersion(uint64(v - cfg.Retain)); err != nil {
				return nil, 0, err
			}
		}
	}
	return gen, userBytes, nil
}

// InterfaceResult compares one engine on native (block-aligned) flash vs
// the same engine forced through a conventional page-mapped FTL —
// isolating the hardware-level write amplification of paper §2.3. The
// native run's device writes are the engine's logical write volume, so
// HWWriteAmp = ftl device writes / native device writes for the same
// engine and workload.
type InterfaceResult struct {
	Engine        string // "QinDB" or "LevelDB"
	Interface     string // "native" or "ftl"
	SysWriteBytes int64
	UserBytes     int64
	WriteAmp      float64 // device writes / user bytes
	Migrations    int64   // FTL valid-page migrations (0 for native)
	Erases        int64
}

// RunInterfaceAblation runs the churn workload on both engines and both
// flash interfaces (four cells) over realistically full devices.
func RunInterfaceAblation(cfg Fig5Config) ([]InterfaceResult, error) {
	if cfg.Keys == 0 {
		cfg = DefaultFig5Config()
	}
	var out []InterfaceResult
	for _, kind := range []EngineKind{QinDB, LevelDB} {
		for _, native := range []bool{true, false} {
			r, err := runInterfacePoint(cfg, kind, native)
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

func runInterfacePoint(cfg Fig5Config, kind EngineKind, native bool) (InterfaceResult, error) {
	res := InterfaceResult{Engine: kind.String(), Interface: "native"}
	// Hardware write amplification only manifests when the device runs
	// near capacity (real deployments run SSDs full) and when erase
	// blocks hold data with different death times. Size the flash to the
	// engine's working set: QinDB holds ~5 versions plus lazy-GC slack;
	// the LSM tree holds transient copies across levels.
	steady := int64(cfg.Retain+1) * int64(cfg.Keys) * int64(cfg.ValueSize)
	capacity := steady + steady/2
	if kind == LevelDB {
		capacity = steady * 4
	}
	dev, err := ssd.NewDevice(ssd.DefaultConfig(capacity))
	if err != nil {
		return res, err
	}
	var fs blockfs.FS
	var ftl *ssd.FTL
	if native {
		fs = blockfs.NewNativeFS(dev)
	} else {
		res.Interface = "ftl"
		geo := dev.Config()
		ftl, err = ssd.NewFTL(dev, (geo.Blocks-6)*geo.PagesPerBlock)
		if err != nil {
			return res, err
		}
		fs = blockfs.NewFTLFS(ftl)
	}
	var engine mint.Engine
	switch kind {
	case QinDB:
		opts := core.DefaultOptions()
		opts.AOF = aof.Config{
			FileSize:     512 << 10, // two erase blocks: boundary sharing is common
			GCThreshold:  0.25,
			MinFreeBytes: capacity / 4, // pressure override keeps a full disk usable
		}
		db, err := core.Open(fs, opts)
		if err != nil {
			return res, err
		}
		engine = mint.QinDBEngine{DB: db}
	case LevelDB:
		opts := levelDBOptions()
		opts.Seed = cfg.Seed
		db, err := lsm.Open(fs, opts)
		if err != nil {
			return res, err
		}
		engine = db
	}
	defer engine.Close()
	if _, res.UserBytes, err = loadChurn(cfg, engine); err != nil {
		return res, err
	}
	st := dev.Stats()
	res.SysWriteBytes = st.SysWriteBytes
	res.WriteAmp = st.WriteAmplification(res.UserBytes)
	res.Erases = st.Erases
	if ftl != nil {
		res.Migrations = ftl.Stats().MigratedPages
	}
	return res, nil
}

// TracebackPoint measures GET cost as the dedup chain deepens (DESIGN.md
// §7, -fig traceback): the fraction of versions that were deduplicated
// rises and with it the number of deduplicated hops a read must resolve.
type TracebackPoint struct {
	DupRatio   float64
	ReadMeanUs float64
	Tracebacks int64
}

// RunTracebackAblation sweeps the duplicate ratio.
func RunTracebackAblation(keys, valueSize, versions int, ratios []float64, seed int64) ([]TracebackPoint, error) {
	if len(ratios) == 0 {
		ratios = []float64{0, 0.3, 0.6, 0.9}
	}
	var out []TracebackPoint
	for _, ratio := range ratios {
		db, stack, err := newQinDB(1<<30, core.DefaultOptions())
		if err != nil {
			return out, err
		}
		gen, err := workload.NewGenerator(workload.KVConfig{
			Keys: keys, ValueSize: valueSize, DupRatio: ratio, Seed: seed,
		})
		if err != nil {
			return out, errors.Join(err, db.Close())
		}
		for v := 1; v <= versions; v++ {
			err := gen.NextVersion(func(e workload.Entry) error {
				return db.Put(e.Key, e.Version, e.Value, e.Dup)
			})
			if err != nil {
				return out, errors.Join(err, db.Close())
			}
		}
		hist := metrics.NewHistogram()
		for i := 0; i < keys; i++ {
			us, err := getMicros(db, stack.Device, gen.Key(i), uint64(versions))
			if err != nil {
				return out, errors.Join(err, db.Close())
			}
			hist.Observe(us)
		}
		out = append(out, TracebackPoint{
			DupRatio:   ratio,
			ReadMeanUs: hist.Mean(),
			Tracebacks: db.Stats().Tracebacks,
		})
		if err := db.Close(); err != nil {
			return out, err
		}
	}
	return out, nil
}

// newQinDB builds a QinDB stack through mint.QinDBFactory and returns
// its engine as the mint.QinDBEngine that factory always builds, for the
// counters only QinDB keeps.
func newQinDB(capacity int64, opts core.Options) (mint.QinDBEngine, *mint.EngineStack, error) {
	stack, err := mint.QinDBFactory(opts)(capacity, 0)
	if err != nil {
		return mint.QinDBEngine{}, nil, err
	}
	return stack.Engine.(mint.QinDBEngine), stack, nil
}
