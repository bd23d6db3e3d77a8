// Command bench is the repository's end-to-end benchmark: it spawns a
// fresh qindbd, drives one of four workloads through its native and RESP
// doors over loopback, verifies every reply, and prints the metrics
// BENCHMARK.json declares. With -trace 1 it also replays the workload in
// process at successive entry points and prints where the time goes.
// README.md in this directory documents every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the daemon sees; BENCHMARK.json bounds each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p75_us", "us"},
	{"lat_ok_share", "ratio"},
	{"cpu_us_per_op", "us"},
	{"alloc_bytes_per_op", "B"},
	{"write_amp", "ratio"},
	{"space_amp", "ratio"},
}

// perLayer is the traced run's account: what only an outside observer of
// the live daemon sees (loadgen, host, qindbd, core.gc), then the
// in-process ladder from the doors down to the simulated device.
var perLayer = []metricDef{
	{"loadgen.lat_mean_us", "us"}, {"loadgen.lat_p95_us", "us"}, {"loadgen.lat_p99_us", "us"},
	{"loadgen.lat_max_us", "us"}, {"loadgen.pacer_lag_p95_us", "us"},
	{"loadgen.cpu_us_per_op", "us"}, {"loadgen.samples", "count"}, {"loadgen.measured_s", "s"},
	{"host.calib_mb_per_s", "MB/s"},
	{"qindbd.allocs_per_op", "count"}, {"qindbd.gc_cycles", "count"}, {"qindbd.gc_cpu_fraction", "ratio"},
	{"qindbd.rss_peak_mb", "MB"}, {"qindbd.syscalls_per_op", "count"},
	{"resp.self_us_per_op", "us"}, {"resp.alloc_bytes_per_op", "B"}, {"resp.allocs_per_op", "count"},
	{"server.wire.self_us_per_op", "us"}, {"server.wire.alloc_bytes_per_op", "B"}, {"server.wire.allocs_per_op", "count"},
	{"server.backend.self_us_per_op", "us"}, {"server.backend.alloc_bytes_per_op", "B"}, {"server.backend.allocs_per_op", "count"},
	{"metrics.observe_ns", "ns"}, {"metrics.observe_par2_ns", "ns"}, {"metrics.registry_us_per_op", "us"},
	{"core.put.us_per_op", "us"}, {"core.get.us_per_op", "us"}, {"core.get_dedup.us_per_op", "us"},
	{"core.self_us_per_op", "us"}, {"core.put.alloc_bytes_per_op", "B"}, {"core.get.alloc_bytes_per_op", "B"},
	{"core.get.allocs_per_op", "count"}, {"core.tracebacks_per_get", "ratio"}, {"core.get.par2_speedup", "ratio"},
	{"core.gc.runs", "count"}, {"core.gc.moved_bytes_per_user_byte", "ratio"}, {"core.dropversion_ms_p50", "ms"},
	{"core.dropversion_ms_max", "ms"}, {"core.gc.stall_share", "ratio"},
	{"core.recovery_ms", "ms"}, {"core.recovery_alloc_mb", "MB"},
	{"skiplist.get_ns", "ns"}, {"skiplist.set_ns", "ns"},
	{"aof.append.us_per_op", "us"}, {"aof.read.us_per_op", "us"}, {"aof.self_us_per_op", "us"},
	{"aof.append.alloc_bytes_per_op", "B"}, {"aof.read.alloc_bytes_per_op", "B"},
	{"aof.appended_bytes_per_user_byte", "ratio"}, {"aof.files", "count"},
	{"blockfs.append.us_per_op", "us"}, {"blockfs.readat.us_per_op", "us"}, {"blockfs.appends_per_put", "ratio"},
	{"blockfs.readats_per_get", "ratio"}, {"blockfs.used_bytes_per_live_byte", "ratio"},
	{"ssd.sys_write_bytes_per_user_byte", "ratio"}, {"ssd.sys_read_bytes_per_user_byte", "ratio"},
	{"ssd.erases", "count"}, {"ssd.virtual_busy_ms", "ms"},
	{"trace.overhead_pct", "%"}, {"trace.span_coverage", "ratio"}, {"ladder.top_us_per_op", "us"},
}

// result is one run's outcome; metrics maps a name to its value.
type result struct {
	attempted, failed int64
	err               error // first failed operation, if any
	metrics           map[string]float64
}

// runLive runs the workload's rounds — each a fresh daemon, its set-up
// and a measured phase — and returns the end-to-end metrics plus the
// per-layer metrics that can only be seen from outside a live process. A
// set-up failure is an error; a failure in a measured phase ends the run
// and is counted in the result.
func runLive(bin string, w workload, seed int64, sz sizing) (*live, result, error) {
	calib := calibrate()
	l := &live{sz: sz, lat: make([][]time.Duration, 2)}
	for r := range l.plans {
		l.plans[r] = &roundPlan{ds: newDataset(seed*rounds+int64(r), sz.keys)}
		l.roundPlan = l.plans[r]
		w.plan(l)
	}
	if err := warmMemory(int(float64(w.warmMB<<20) * float64(sz.keys) / keysPerVersion)); err != nil {
		return nil, result{}, err
	}

	// Sums over the rounds: of the measured phases' deltas, and of the
	// engine's lifetime counters as each daemon ends.
	var (
		setups                                  []float64
		wall, cpu, self                         time.Duration
		totalAlloc, mallocs, numGC, syscalls    int64
		gcRuns, gcMoved, userDelta              int64
		appended, userBytes, diskBytes, liveSum int64
		peakRSS                                 int64
		gcCPUFrac                               float64
		runErr                                  error
	)
	for r := 0; r < rounds && runErr == nil; r++ {
		l.roundPlan = l.plans[r]
		start := time.Now()
		d, err := startDaemon(bin)
		if err != nil {
			return nil, result{}, err
		}
		l.d = d
		fail := func(err error) (*live, result, error) {
			d.stop()
			if runErr != nil {
				err = fmt.Errorf("%w (after the measured phase failed: %v)", err, runErr)
			}
			return nil, result{}, fmt.Errorf("%s round %d: %w\n%s", w.name, r+1, err, d.stderr.String())
		}
		if err := w.setup(l); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		setups = append(setups, time.Since(start).Seconds())

		before, err := d.sample()
		if err != nil {
			return fail(err)
		}
		stats0, err := d.engineStats()
		if err != nil {
			return fail(err)
		}
		self0 := selfCPU()
		start = time.Now()
		runErr = w.measure(l)
		wall += time.Since(start)
		self += selfCPU() - self0
		after, err := d.sample()
		if err != nil {
			return fail(err)
		}
		stats1, err := d.engineStats()
		if err != nil {
			return fail(err)
		}
		d.stop()

		cpu += after.cpu - before.cpu
		totalAlloc += after.totalAlloc - before.totalAlloc
		mallocs += after.mallocs - before.mallocs
		numGC += after.numGC - before.numGC
		syscalls += after.syscalls - before.syscalls
		peakRSS = max(peakRSS, after.peakRSS)
		gcCPUFrac += after.gcCPUFrac / rounds
		e1, e0 := stats1.Engine, stats0.Engine
		gcRuns += e1.Store.GCRuns - e0.Store.GCRuns
		gcMoved += e1.Store.GCMoved - e0.Store.GCMoved
		userDelta += e1.UserWriteBytes - e0.UserWriteBytes
		appended += e1.Store.AppendedBytes
		userBytes += e1.UserWriteBytes
		diskBytes += e1.Store.DiskBytes
		liveSum += e1.Store.LiveBytes
	}
	calib = (calib + calibrate()) / 2
	l.roundPlan = l.plans[0] // what the ladder replays

	acked := l.acked.Load()
	res := result{attempted: l.attempted, failed: l.attempted - acked, err: runErr, metrics: map[string]float64{}}
	ops := float64(max(acked, 1))
	var pooled []time.Duration
	for _, s := range l.lat {
		pooled = append(pooled, s...)
	}
	lat, lag, drops := summarize(pooled), summarize(l.lag), summarize(l.drops)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	m := res.metrics
	m["setup_s"] = median(setups)
	m["ops_per_s"] = float64(acked) / wall.Seconds()
	m["lat_p50_us"], m["lat_p75_us"] = lat.p50, lat.p75
	m["lat_ok_share"] = lat.within
	m["cpu_us_per_op"] = us(cpu) / ops
	m["alloc_bytes_per_op"] = float64(totalAlloc) / ops
	m["write_amp"] = float64(appended) / float64(userBytes)
	m["space_amp"] = float64(diskBytes) / float64(liveSum)

	m["loadgen.lat_mean_us"], m["loadgen.lat_p95_us"] = lat.mean, lat.p95
	m["loadgen.lat_p99_us"], m["loadgen.lat_max_us"] = lat.p99, lat.max
	m["loadgen.pacer_lag_p95_us"] = lag.p95
	m["loadgen.cpu_us_per_op"] = us(self) / ops
	m["loadgen.samples"] = float64(lat.n)
	m["loadgen.measured_s"] = wall.Seconds()
	m["host.calib_mb_per_s"] = calib
	m["qindbd.allocs_per_op"] = float64(mallocs) / ops
	m["qindbd.gc_cycles"] = float64(numGC)
	m["qindbd.gc_cpu_fraction"] = gcCPUFrac
	m["qindbd.rss_peak_mb"] = float64(peakRSS) / (1 << 20)
	m["qindbd.syscalls_per_op"] = float64(syscalls) / ops
	m["core.gc.runs"] = float64(gcRuns)
	if userDelta > 0 {
		m["core.gc.moved_bytes_per_user_byte"] = float64(gcMoved) / float64(userDelta)
	}
	m["core.dropversion_ms_p50"], m["core.dropversion_ms_max"] = drops.p50/1000, drops.max/1000
	m["core.gc.stall_share"] = drops.mean * float64(drops.n) / us(wall)
	return l, res, nil
}

// printMetrics prints the metrics named by defs, one per line.
func printMetrics(res result, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-36s %16.4f %s\n", d.name, res.metrics[d.name], d.unit)
	}
}

// emit prints the metrics named by defs, then the result object the
// driver reads from the last line.
func emit(res result, defs []metricDef) {
	printMetrics(res, defs)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.failed == 0 && res.err == nil, res.attempted, res.failed, map[string]jm{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; a ratio over nothing reads 0
		}
		out.Metrics[d.name] = jm{v, d.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

func main() {
	var (
		bin      = flag.String("qindbd", ".bench_build/qindbd", "path of the qindbd binary to spawn")
		name     = flag.String("workload", "", "publish, serve, mixed or resp-small (empty with -repeat: all)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 20, "nominal length of the measured phase; sets the operation counts")
		trace    = flag.Int("trace", 0, "1: add the in-process ladder and print the per-layer metrics instead")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the ladder's spans to this file as JSON lines")
		repeat   = flag.Int("repeat", 0, "run N full sets back to back and report each metric's spread against its bound")
	)
	flag.Parse()
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	sz := fullSize(*seconds)
	if *repeat > 0 {
		if err := runRepeat(*bin, *name, *seed, sz, *repeat); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	l, res, err := runLive(*bin, w, *seed, sz)
	if err != nil {
		fatal(err)
	}
	if res.err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: measured phase failed: %v\n", w.name, res.err)
	}
	fmt.Printf("workload %s seed %d: attempted %d failed %d, %d latency samples over %.2f s, host calibration %.0f MB/s\n",
		w.name, *seed, res.attempted, res.failed, int(res.metrics["loadgen.samples"]), res.metrics["loadgen.measured_s"], res.metrics["host.calib_mb_per_s"])
	if *trace == 0 {
		emit(res, endToEnd)
		return
	}
	// The traced run: the end-to-end figures above are printed for the
	// reader, the result object carries the per-layer ones.
	printMetrics(res, endToEnd)
	if err := runLadder(l, w.name, res.metrics, *traceOut); err != nil {
		fatal(fmt.Errorf("%s ladder: %w", w.name, err))
	}
	emit(res, perLayer)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// --- -repeat ---------------------------------------------------------------------

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs,
// n=4) does (the exclusive method), which is what the driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	at := func(i int) float64 {
		m := len(xs) + 1
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}

// runRepeat runs n sets of every workload (or the named one) and prints,
// per workload and end-to-end metric, each set's value, the widest
// relative spread and whether it stays inside the metric's bound.
func runRepeat(bin, only string, seed int64, sz sizing, n int) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	values := map[string][]float64{} // "workload/metric" -> one value per set
	for set := 0; set < n; set++ {
		for _, w := range workloads {
			if only != "" && only != w.name {
				continue
			}
			_, res, err := runLive(bin, w, seed, sz)
			if err != nil {
				return err
			}
			if res.failed != 0 || res.err != nil {
				return fmt.Errorf("%s set %d: %d of %d operations failed: %v", w.name, set+1, res.failed, res.attempted, res.err)
			}
			fmt.Fprintf(os.Stderr, "set %d %s done\n", set+1, w.name)
			for _, d := range endToEnd {
				key := w.name + "/" + d.name
				values[key] = append(values[key], res.metrics[d.name])
			}
		}
	}
	ok := true
	for _, w := range workloads {
		for _, d := range endToEnd {
			xs := values[w.name+"/"+d.name]
			if xs == nil {
				continue
			}
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			med := median(append([]float64(nil), xs...))
			spread := (hi - lo) / med
			verdict := "PASS"
			if spread > bounds[d.name] {
				verdict, ok = "FAIL", false
			}
			fmt.Printf("%-10s %-18s", w.name, d.name)
			for _, x := range xs {
				fmt.Printf(" %12.4f", x)
			}
			fmt.Printf("  max-min %.4f", spread)
			if len(xs) >= 4 {
				q1, q3 := quartiles(xs)
				fmt.Printf("  iqr %.4f", (q3-q1)/med)
			}
			fmt.Printf("  bound %.2f %s\n", bounds[d.name], verdict)
		}
	}
	if !ok {
		return fmt.Errorf("at least one metric spread beyond its bound")
	}
	return nil
}

// readBounds loads each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-repeat reads the bounds from %s in the working directory: %w", path, err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
