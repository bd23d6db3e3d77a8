// Command figures regenerates every figure of the paper's evaluation
// section from the same runners the benchmarks use, printing the series
// and summary statistics, and optionally writing CSV files.
//
//	go run ./cmd/figures              # everything
//	go run ./cmd/figures -fig 5       # one figure (5, 6, 7, 8, 9, 10)
//	go run ./cmd/figures -fig rum     # §5 RUM ablation
//	go run ./cmd/figures -csv out/    # also write CSV series
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"directload/internal/experiments"
)

var (
	figFlag = flag.String("fig", "all", "figure to regenerate: 5, 6, 7, 8, 9, 10, rum, iface, traceback, consistency, all")
	csvDir  = flag.String("csv", "", "directory to write CSV series into (optional)")
	seed    = flag.Int64("seed", 1, "workload seed")
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	which := strings.ToLower(*figFlag)
	run := func(name string) bool { return which == "all" || which == name }

	if run("5") || run("6") || run("7") {
		fig567()
	}
	if run("8") {
		fig8()
	}
	if run("9") || run("10") {
		fig910(run("9"), run("10") || which == "all")
	}
	if run("rum") {
		rum()
	}
	if run("iface") {
		iface()
	}
	if run("traceback") {
		traceback()
	}
	if run("consistency") {
		consistency()
	}
}

func consistency() {
	base := experiments.DefaultConsistencyConfig()
	base.Seed = *seed
	rs, err := experiments.ConsistencySweep(base, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== §3 gray-release search consistency vs content churn ==")
	fmt.Println("   paper: < 0.1% of search results inconsistent during gray release")
	fmt.Printf("%10s %14s %14s %14s\n", "churn", "changed-docs", "during-gray", "after-activate")
	for _, r := range rs {
		fmt.Printf("%10.2f %14d %13.2f%% %13.2f%%\n",
			r.MutateProb, r.ChangedDocs, 100*r.RateDuring, 100*r.RateAfter)
	}
	fmt.Println()
}

func writeCSV(name string, header string, s *experiments.Series) {
	if *csvDir == "" {
		return
	}
	if err := os.MkdirAll(*csvDir, 0o755); err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(*csvDir, name)
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	fmt.Fprintln(f, header)
	xs, ys := s.Points()
	for i := range xs {
		fmt.Fprintf(f, "%.6f,%.6f\n", xs[i], ys[i])
	}
	log.Printf("wrote %s (%d points)", path, len(xs))
}

func fig567() {
	cfg := experiments.DefaultFig5Config()
	cfg.Seed = *seed
	q, l, err := experiments.Fig5Pair(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Figure 5: write amplification (LevelDB vs QinDB) ==")
	fmt.Println("   paper: LevelDB user 1.5 MB/s vs sys 30-50 MB/s (20-25x WA);")
	fmt.Println("          QinDB user 3.5 MB/s vs sys 7.5 MB/s (~2.1x WA)")
	for _, r := range []experiments.Fig5Result{l, q} {
		fmt.Printf("%-8s user %7.2f MB/s | sys write %7.2f MB/s | sys read %7.2f MB/s | WA %5.2fx | elapsed %v\n",
			r.Engine, r.UserMBps, r.SysWriteMBps, r.SysReadMBps, r.WriteAmp, r.Elapsed)
	}
	fmt.Printf("QinDB ingest speedup: %.2fx (paper: ~3x)\n\n", float64(l.Elapsed)/float64(q.Elapsed))

	fmt.Println("== Figure 6: user-write throughput dynamics ==")
	fmt.Println("   paper: stddev 0.6616 MB/s (LevelDB) vs 0.0501 MB/s (QinDB)")
	for _, r := range []experiments.Fig5Result{l, q} {
		fmt.Printf("%-8s stddev %7.3f MB/s | coefficient of variation %.3f | %d windows\n",
			r.Engine, r.UserStdDev, r.UserCV, r.UserWrite.Len())
	}
	fmt.Println()

	fmt.Println("== Figure 7: storage occupation ==")
	fmt.Println("   paper: QinDB ~80 GB vs LevelDB ~40 GB at the end of the run")
	for _, r := range []experiments.Fig5Result{l, q} {
		_, _, _, peak := r.Storage.YStats()
		fmt.Printf("%-8s final %7.2f MB | peak %7.2f MB\n",
			r.Engine, r.FinalDiskGB*1024, peak*1024)
	}
	fmt.Println()

	writeCSV("fig5_leveldb_user.csv", "minutes,MBps", l.UserWrite)
	writeCSV("fig5_leveldb_syswrite.csv", "minutes,MBps", l.SysWrite)
	writeCSV("fig5_leveldb_sysread.csv", "minutes,MBps", l.SysRead)
	writeCSV("fig5_qindb_user.csv", "minutes,MBps", q.UserWrite)
	writeCSV("fig5_qindb_syswrite.csv", "minutes,MBps", q.SysWrite)
	writeCSV("fig5_qindb_sysread.csv", "minutes,MBps", q.SysRead)
	writeCSV("fig7_leveldb_storage.csv", "minutes,GB", l.Storage)
	writeCSV("fig7_qindb_storage.csv", "minutes,GB", q.Storage)
}

func fig8() {
	cfg := experiments.DefaultFig8Config()
	cfg.Seed = *seed
	rs, err := experiments.Fig8All(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Figure 8: read latency (us) ==")
	fmt.Println("   paper 8a (no updates):  QinDB 1803/3558/6574  LevelDB 1846/3909/15081")
	fmt.Println("   paper 8b (with updates): QinDB 2104/4397/13663 LevelDB 2668/12789/26458")
	fmt.Printf("%-8s %-13s %9s %9s %9s %9s\n", "engine", "scenario", "mean", "p99", "p99.9", "max")
	for _, r := range rs {
		fmt.Printf("%-8s %-13s %9.0f %9.0f %9.0f %9.0f\n",
			r.Engine, r.Scenario, r.Latency.Mean, r.Latency.P99, r.Latency.P999, r.Latency.Max)
	}
	fmt.Println()
}

func fig910(show9, show10 bool) {
	cfg := experiments.DefaultMonthConfig()
	cfg.Seed = *seed
	with, without, days, withoutDays, err := experiments.MonthPair(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if show9 {
		fmt.Println("== Figure 9: dedup ratio and update time within one month ==")
		fmt.Println("   paper: 23% dedup -> 130 min; ~80% dedup -> ~30 min (anti-correlated)")
		fmt.Printf("%5s %12s %12s %9s\n", "day", "dedup-ratio", "update-min", "repairs")
		for _, d := range days {
			fmt.Printf("%5d %12.2f %12.3f %9d\n", d.Day, d.DedupRatio, d.UpdateMinutes, d.Repairs)
		}
		fmt.Println()
		series := &experiments.Series{}
		for _, d := range days {
			series.Append(float64(d.Day), d.UpdateMinutes)
		}
		writeCSV("fig9_update_time.csv", "day,update_min", series)
		ratio := &experiments.Series{}
		for _, d := range days {
			ratio.Append(float64(d.Day), d.DedupRatio)
		}
		writeCSV("fig9_dedup_ratio.csv", "day,dedup_ratio", ratio)
	}
	if show10 {
		fmt.Println("== Figure 10a: updating throughput (10^3 keys/s) ==")
		fmt.Println("   paper: up to 5x improvement with DirectLoad")
		mean, peak, clean := experiments.PairwiseSpeedup(days, withoutDays)
		fmt.Printf("DirectLoad %8.3f kps | baseline %8.3f kps\n", with.MeanKps, without.MeanKps)
		fmt.Printf("clean-day speedup: mean %.2fx, peak %.2fx (%d clean days)\n", mean, peak, clean)
		fmt.Println()
		fmt.Println("== Figure 10b: miss ratio ==")
		fmt.Println("   paper: 0.24% against a 0.6% SLO")
		fmt.Printf("DirectLoad miss ratio %.3f%% (SLO 0.6%%) | baseline %.3f%%\n",
			100*with.MissRatio, 100*without.MissRatio)
		fmt.Println()
		fmt.Println("== Headline numbers ==")
		saving := 1 - float64(with.WireBytes)/float64(with.PayloadBytes)
		fmt.Printf("bandwidth saved by dedup: %.1f%% (paper: 63%%)\n", 100*saving)
		mean2, _, _ := experiments.PairwiseSpeedup(days, withoutDays)
		fmt.Printf("update cycle compression (clean days): %.2fx (paper: 15 days -> 3 days = 5x)\n", mean2)
		fmt.Println()
	}
}

func rum() {
	cfg := experiments.DefaultFig5Config()
	cfg.Seed = *seed
	pts, err := experiments.RunRUMAblation(cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== §5 RUM conjecture: lazy-GC threshold sweep on QinDB ==")
	fmt.Printf("%10s %8s %10s %10s %8s %12s\n",
		"threshold", "WA (U)", "read-us(R)", "disk-MB(M)", "gc-runs", "recovery")
	for _, p := range pts {
		fmt.Printf("%10.2f %8.2f %10.0f %10.1f %8d %12v\n",
			p.GCThreshold, p.WriteAmp, p.ReadMeanUs, p.DiskGB*1024, p.GCRuns, p.RecoveryTime)
	}
	fmt.Println()
}

func iface() {
	cfg := experiments.DefaultFig5Config()
	cfg.Seed = *seed
	rs, err := experiments.RunInterfaceAblation(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Ablation: native (block-aligned) vs FTL flash interface ==")
	fmt.Printf("%-8s %-8s %8s %12s %10s\n", "engine", "iface", "WA", "migrations", "erases")
	for _, r := range rs {
		fmt.Printf("%-8s %-8s %8.2f %12d %10d\n",
			r.Engine, r.Interface, r.WriteAmp, r.Migrations, r.Erases)
	}
	fmt.Println()
}

func traceback() {
	pts, err := experiments.RunTracebackAblation(200, 16<<10, 8, nil, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== Ablation: dedup traceback cost (bind-at-PUT) ==")
	fmt.Printf("%10s %10s %12s\n", "dup-ratio", "read-us", "tracebacks")
	for _, p := range pts {
		fmt.Printf("%10.1f %10.0f %12d\n", p.DupRatio, p.ReadMeanUs, p.Tracebacks)
	}
	fmt.Println()
}
