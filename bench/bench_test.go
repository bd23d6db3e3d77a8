package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// buildDaemon builds cmd/qindbd into a temporary directory.
func buildDaemon(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "qindbd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/qindbd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build qindbd: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload, live and traced, at a fiftieth of the
// benchmark's size and checks that nothing fails and that every metric
// BENCHMARK.json declares comes out finite.
func TestSmoke(t *testing.T) {
	bin := buildDaemon(t)
	sz := sizing{keys: keysPerVersion / 50, respKeys: 2000, seconds: 20.0 / 50}
	for _, w := range workloads {
		l, res, err := runLive(bin, w, 7, sz)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.err != nil || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.failed, res.attempted, res.err)
		}
		if err := runLadder(l, w.name, res.metrics, filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
			t.Fatalf("%s ladder: %v", w.name, err)
		}
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				// A metric of a layer the workload does not pass reads 0.
				if v := res.metrics[d.name]; math.IsNaN(v) || math.IsInf(v, 0) || d.unit == "" {
					t.Errorf("%s: metric %s = %v, unit %q", w.name, d.name, v, d.unit)
				}
			}
		}
		for _, name := range []string{"ops_per_s", "lat_p50_us", "lat_ok_share", "setup_s", "write_amp", "space_amp", "alloc_bytes_per_op"} {
			if res.metrics[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, res.metrics[name])
			}
		}
		// The self times telescope to the top rung's time by construction;
		// what can go wrong is time the spans do not account for.
		if c := res.metrics["trace.span_coverage"]; c < 0.9 || c > 1 {
			t.Errorf("%s: request spans cover %.3f of the top rung's time, want 0.9 to 1", w.name, c)
		}
	}
}

// TestShippedDefaults compares the configuration the ladder builds its
// stacks with against the defaults qindbd declares.
func TestShippedDefaults(t *testing.T) {
	out, err := exec.Command(buildDaemon(t), "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("qindbd -h: %v\n%s", err, out)
	}
	defaults := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)[^\n]*\n[^\n]*\(default ([^)\n]+)\)$`).FindAllStringSubmatch(string(out), -1) {
		defaults[m[1]] = m[2]
	}
	for flag, want := range map[string]string{
		"aof":               strconv.FormatInt(shipped.aofSize, 10),
		"checkpoint":        strconv.FormatInt(shipped.checkpoint, 10),
		"gc":                strconv.FormatFloat(shipped.gc, 'g', -1, 64),
		"slo-read-target":   strconv.FormatFloat(shipped.sloReadTarget, 'g', -1, 64),
		"slowlog-threshold": shipped.slowlog.String(),
		"attr-sample":       strconv.Itoa(shipped.attrSample),
	} {
		if defaults[flag] != want {
			t.Errorf("qindbd -%s defaults to %q, the ladder uses %s", flag, defaults[flag], want)
		}
	}
}

// TestDeclaredMetrics keeps BENCHMARK.json and the tables in main.go in
// step.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []decl, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for i, w := range workloads {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json and the benchmark disagree on %s", i, w.name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]time.Duration, 100)
	for i := range xs {
		xs[i] = time.Duration(i + 1)
	}
	for q, want := range map[float64]time.Duration{0.5: 50, 0.95: 95, 0.99: 99, 1: 100, 0: 1, 0.001: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	s := summarize([]time.Duration{4000, 1000, 3000, 2000})
	if s.n != 4 || s.p50 != 2 || s.max != 4 || s.mean != 2.5 {
		t.Errorf("summarize = %+v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	if q1, q3 = quartiles([]float64{3, 1, 4, 1, 5}); q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v, want 1, 4.5", q1, q3)
	}
}

func TestPacer(t *testing.T) {
	start := time.Unix(1000, 0)
	p := pacer{start: start, rate: 4000}
	if got := p.due(4000).Sub(start); got != time.Second {
		t.Errorf("request 4000 at 4000/s due after %v", got)
	}
	if got := p.due(1).Sub(start); got != 250*time.Microsecond {
		t.Errorf("request 1 due after %v", got)
	}
	for _, c := range []struct {
		after time.Duration
		want  int
	}{{-time.Millisecond, 0}, {0, 1}, {249 * time.Microsecond, 1}, {251 * time.Microsecond, 2}, {time.Second + time.Microsecond, 4001}} {
		if got := p.dueCount(start.Add(c.after)); got != c.want {
			t.Errorf("dueCount(+%v) = %d, want %d", c.after, got, c.want)
		}
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (qin dbd) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 731 269 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 10*time.Second {
		t.Errorf("parseProcStatCPU = %v, %v; want 10s", cpu, err)
	}
	if _, err := parseProcStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("short stat line accepted")
	}
	io := "rchar: 10\nwchar: 20\nsyscr: 300\nsyscw: 45\nread_bytes: 0\n"
	if got := parseProcIO(io); got != 345 {
		t.Errorf("parseProcIO = %d, want 345", got)
	}
	if got := parseProcStatusKB("Name:\tqindbd\nVmPeak:\t 9000 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 100 kB\n", "VmHWM"); got != 2048 {
		t.Errorf("parseProcStatusKB = %d, want 2048", got)
	}
	heap := "heap profile: 1: 2 [3: 4] @ heap/1048576\n1: 2 [3: 4] @ 0x1\n#\t0x1\tmain\n\n# runtime.MemStats\n# Alloc = 100\n# TotalAlloc = 123456789\n# Mallocs = 77\n# PauseNs = [1 2 3]\n# NumGC = 9\n# GCCPUFraction = 0.0125\n"
	ms, err := parseHeapMemStats(strings.NewReader(heap))
	if err != nil || ms["TotalAlloc"] != 123456789 || ms["Mallocs"] != 77 || ms["NumGC"] != 9 || ms["GCCPUFraction"] != 0.0125 {
		t.Errorf("parseHeapMemStats = %v, %v", ms, err)
	}
	if _, err := parseHeapMemStats(strings.NewReader("no footer")); err == nil {
		t.Error("heap profile without MemStats accepted")
	}
}

func TestDatasetOracle(t *testing.T) {
	a, b := newDataset(5, 200), newDataset(5, 200)
	dups := 0
	for v := 1; v <= 6; v++ {
		for k := 0; k < 200; k++ {
			if string(a.value(k, v)) != string(b.value(k, v)) {
				t.Fatalf("same seed, different value for key %d v%d", k, v)
			}
			if a.plan(v).dup(k, v) {
				dups++
				if string(a.value(k, v)) != string(a.value(k, v-1)) {
					t.Fatalf("dedup entry key %d v%d differs from v%d", k, v, v-1)
				}
			}
		}
	}
	if share := float64(dups) / 1000; share < 0.6 || share > 0.8 {
		t.Errorf("dedup share of versions 2-6 = %.2f, want about 0.7", share)
	}
	val := a.value(3, 4)
	if err := a.check(val, 3, 4, true); err != nil {
		t.Errorf("own value rejected: %v", err)
	}
	val[len(val)-1] ^= 1
	if a.check(val, 3, 4, true) == nil || a.check(val, 3, 4, false) != nil {
		t.Error("a flipped body byte must fail the full check and only the full check")
	}
	if a.check(a.value(4, 4), 3, 4, false) == nil {
		t.Error("another key's value accepted")
	}
	if string(newDataset(6, 200).value(0, 1)) == string(a.value(0, 1)) {
		t.Error("different seeds, same value")
	}
}
