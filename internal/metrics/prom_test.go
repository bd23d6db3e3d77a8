package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestSanitizePromName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"qindb.put.device_us", "qindb_put_device_us"},
		{"server.req.batch", "server_req_batch"},
		{"aof-rotate.count", "aof_rotate_count"},
		{"already_legal:name", "already_legal:name"},
		{"9lives", "_9lives"},
		{"", "_"},
		{"mixed.CASE-42", "mixed_CASE_42"},
		{"sp ace", "sp_ace"},
	}
	for _, c := range cases {
		if got := SanitizePromName(c.in); got != c.want {
			t.Errorf("SanitizePromName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestWritePrometheusShape checks the exposition format: HELP/TYPE
// headers, counter and gauge samples, and histograms rendered as
// cumulative buckets ending in +Inf, _sum and _count.
func TestWritePrometheusShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("qindb.puts").Add(3)
	r.Gauge("qindb.memtable.bytes").Set(4096)
	r.GaugeFunc("aof.occupancy", func() float64 { return 0.5 })
	h := r.Histogram("qindb.put.device_us")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}

	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP qindb_puts directload metric qindb.puts",
		"# TYPE qindb_puts counter",
		"qindb_puts 3",
		"# TYPE qindb_memtable_bytes gauge",
		"qindb_memtable_bytes 4096",
		"# TYPE aof_occupancy gauge",
		"aof_occupancy 0.5",
		"# TYPE qindb_put_device_us histogram",
		`qindb_put_device_us_bucket{le="1.03125"} 1`, // 1 sits in [1, 1+1/32)
		`qindb_put_device_us_bucket{le="51"} 50`,
		`qindb_put_device_us_bucket{le="102"} 100`,
		`qindb_put_device_us_bucket{le="+Inf"} 100`,
		"qindb_put_device_us_count 100",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must start with a sanitized (legal) name,
	// bucket lines must be cumulative and _sum is the buckets' own.
	last := int64(-1)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "qindb_put_device_us_bucket") {
			n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil || n < last {
				t.Errorf("bucket line %q after count %d (%v)", line, last, err)
			}
			last = n
		}
		if v, ok := strings.CutPrefix(line, "qindb_put_device_us_sum "); ok {
			if sum, err := strconv.ParseFloat(v, 64); err != nil || !within(sum, 5050) {
				t.Errorf("_sum = %q, want 5050 within %v", v, relErr)
			}
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if name != SanitizePromName(name) {
			t.Errorf("illegal metric name on the wire: %q", line)
		}
	}
}

// TestWritePrometheusHistogramsComplete scans every histogram family
// in the exposition and requires the +Inf bucket, _sum and _count
// series — Prometheus clients compute rates and quantiles from those,
// so a family missing one silently breaks dashboards.
func TestWritePrometheusHistogramsComplete(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"qindb.put.device_us", "fleet.read.latency_us", "relay.ship.latency_us"} {
		h := r.Histogram(name)
		for i := 1; i <= 10; i++ {
			h.Observe(float64(i))
		}
	}
	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	families := 0
	for _, line := range strings.Split(out, "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok || !strings.HasSuffix(rest, " histogram") {
			continue
		}
		families++
		name := strings.TrimSuffix(rest, " histogram")
		for _, series := range []string{name + `_bucket{le="+Inf"} 10` + "\n", name + "_sum 55.", name + "_count 10\n"} {
			if !strings.Contains(out, "\n"+series) {
				t.Errorf("histogram %s missing %q:\n%s", name, series, out)
			}
		}
	}
	if families < 3 {
		t.Fatalf("expected at least 3 histogram families, scanned %d:\n%s", families, out)
	}
}

// TestExportsConsistentUnderConcurrency scrapes while four writers
// observe: the +Inf bucket must equal _count, buckets must stay
// cumulative, and the JSON snapshot must keep min <= p99 <= max.
func TestExportsConsistentUnderConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("busy.latency_us")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				v = v*1.3 + 1
				if v > 1e6 {
					v = 1
				}
			}
		}(float64(g + 1))
	}
	for i := 0; i < 100; i++ {
		var sb strings.Builder
		if _, err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		var inf, count, last int64 = -1, -1, 0
		for _, line := range strings.Split(sb.String(), "\n") {
			var n int64
			switch {
			case strings.HasPrefix(line, `busy_latency_us_bucket{le="+Inf"} `):
				fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &inf)
				n = inf
			case strings.HasPrefix(line, "busy_latency_us_bucket{"):
				fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &n)
			case strings.HasPrefix(line, "busy_latency_us_count "):
				fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &count)
				continue
			default:
				continue
			}
			if n < last {
				t.Fatalf("bucket counts not cumulative (%d after %d):\n%s", n, last, sb.String())
			}
			last = n
		}
		if inf != count || inf < 0 {
			t.Fatalf("+Inf bucket %d, _count %d:\n%s", inf, count, sb.String())
		}
		s, _ := r.Snapshot()["busy.latency_us"].(Snapshot)
		if s.Count > 0 && !(s.Min <= s.P50 && s.P50 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max) {
			t.Fatalf("inconsistent registry snapshot: %+v", s)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWritePrometheusCollision checks that two registry names mapping
// to one sanitized name emit only a single family (first wins) instead
// of an invalid duplicated exposition.
func TestWritePrometheusCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(1)
	r.Counter("a-b").Add(2)

	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "# TYPE a_b counter"); got != 1 {
		t.Fatalf("collision emitted %d a_b families, want 1:\n%s", got, out)
	}
	// Lexicographically first original name wins: "a-b" < "a.b".
	if !strings.Contains(out, "a_b 2") {
		t.Fatalf("collision winner should be a-b (value 2):\n%s", out)
	}
}

// TestWritePrometheusNil checks the nil-registry escape hatch.
func TestWritePrometheusNil(t *testing.T) {
	var r *Registry
	var sb strings.Builder
	n, err := r.WritePrometheus(&sb)
	if err != nil || n != 0 || sb.Len() != 0 {
		t.Fatalf("nil registry wrote %d bytes, err %v", n, err)
	}
}
