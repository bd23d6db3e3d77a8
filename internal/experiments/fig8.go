package experiments

import (
	"errors"
	"fmt"

	"directload/internal/core"
	"directload/internal/lsm"
	"directload/internal/metrics"
	"directload/internal/mint"
	"directload/internal/ssd"
	"directload/internal/workload"
)

// Fig8Config shapes the read-latency experiment (paper §4.1.3): Zipf
// reads against a store loaded with several versions, measured with and
// without a concurrent updating stream.
type Fig8Config struct {
	Keys           int
	ValueSize      int
	LoadVersions   int // versions resident before measuring
	Reads          int // measured read operations
	ZipfSkew       float64
	DeviceCapacity int64
	Seed           int64
	// WithUpdates interleaves an update stream: one PUT per
	// UpdateEvery reads, plus a version retirement partway through (the
	// paper's experiment inserts 11 versions while reading).
	WithUpdates bool
	UpdateEvery int
}

// DefaultFig8Config returns the laptop-scale latency run.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		Keys:           300,
		ValueSize:      20 << 10,
		LoadVersions:   4,
		Reads:          8000,
		ZipfSkew:       1.2,
		DeviceCapacity: 2 << 30,
		Seed:           1,
		UpdateEvery:    4,
	}
}

// Fig8Result is the latency distribution for one engine and scenario.
type Fig8Result struct {
	Engine   string
	Scenario string // "no-updates" or "with-updates"
	Latency  metrics.Snapshot
	Errors   int
}

// RunFig8 measures read latency on one engine. A GET's latency is how
// far it advances the device clock (memtable work is free in both
// engines; flash I/O dominates, as in the paper's microsecond-scale
// results).
func RunFig8(kind EngineKind, cfg Fig8Config) (Fig8Result, error) {
	if cfg.Keys == 0 {
		cfg = DefaultFig8Config()
	}
	scenario := "no-updates"
	if cfg.WithUpdates {
		scenario = "with-updates"
	}
	res := Fig8Result{Engine: kind.String(), Scenario: scenario}

	stack, err := newStack(kind, cfg.DeviceCapacity, cfg.Seed)
	if err != nil {
		return res, err
	}
	defer stack.Engine.Close()

	gen, err := workload.NewGenerator(workload.KVConfig{
		Keys:            cfg.Keys,
		ValueSize:       cfg.ValueSize,
		ValueSizeStdDev: cfg.ValueSize / 8,
		DupRatio:        0.3,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return res, err
	}
	load := func() error {
		return gen.NextVersion(func(e workload.Entry) error {
			return stack.Engine.Put(e.Key, e.Version, e.Value, false)
		})
	}
	for v := 0; v < cfg.LoadVersions; v++ {
		if err := load(); err != nil {
			return res, err
		}
	}

	reads, err := workload.NewReadGen(cfg.Keys, cfg.ZipfSkew, cfg.Seed+7)
	if err != nil {
		return res, err
	}
	verGen, err := workload.NewReadGen(cfg.LoadVersions, 1.3, cfg.Seed+13)
	if err != nil {
		return res, err
	}
	hist := metrics.NewHistogram()
	firstLive := uint64(1)
	complete := uint64(cfg.LoadVersions) // newest fully-written version
	nextVersion := uint64(cfg.LoadVersions)
	updKey := 0
	for i := 0; i < cfg.Reads; i++ {
		key := gen.Key(reads.Next())
		// Read a recent complete version: newest minus a Zipf offset.
		ver := complete - uint64(verGen.Next())
		if ver < firstLive {
			ver = firstLive
		}
		us, err := getMicros(stack.Engine, stack.Device, key, ver)
		if err != nil {
			// Tolerate deleted/retired versions racing the update stream.
			if errors.Is(err, core.ErrDeleted) || errors.Is(err, lsm.ErrDeleted) {
				continue
			}
			res.Errors++
			continue
		}
		hist.Observe(us)

		if cfg.WithUpdates && cfg.UpdateEvery > 0 && i%cfg.UpdateEvery == cfg.UpdateEvery-1 {
			// Updating stream: rotate through keys, writing the next
			// version; retire the oldest when a version completes.
			if updKey == 0 {
				nextVersion++
			}
			if err := stack.Engine.Put(gen.Key(updKey), nextVersion, gen.Value(updKey), false); err != nil {
				return res, err
			}
			updKey++
			if updKey == cfg.Keys {
				updKey = 0
				complete = nextVersion
				if nextVersion-firstLive >= 4 {
					if _, err := stack.Engine.DropVersion(firstLive); err != nil {
						return res, fmt.Errorf("drop v%d: %w", firstLive, err)
					}
					firstLive++
				}
			}
		}
	}
	res.Latency = hist.Snapshot()
	return res, nil
}

// getMicros reads (key, version) and returns the read's latency in
// microseconds: how far it advanced dev's clock.
func getMicros(e mint.Engine, dev *ssd.Device, key []byte, version uint64) (float64, error) {
	start := dev.Now()
	_, err := e.Get(key, version)
	return float64((dev.Now() - start).Microseconds()), err
}

// Fig8All runs the four cells of Fig. 8: both engines, both scenarios.
func Fig8All(cfg Fig8Config) ([]Fig8Result, error) {
	var out []Fig8Result
	for _, withUpdates := range []bool{false, true} {
		for _, kind := range []EngineKind{LevelDB, QinDB} {
			c := cfg
			c.WithUpdates = withUpdates
			r, err := RunFig8(kind, c)
			if err != nil {
				return out, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}
