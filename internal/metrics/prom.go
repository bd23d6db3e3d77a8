package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// SanitizePromName maps a registry's dotted metric name onto a legal
// Prometheus metric name. The registry's naming convention uses `.` as
// the hierarchy separator and allows `-`; Prometheus allows only
// [a-zA-Z_:][a-zA-Z0-9_:]*. The mapping is:
//
//   - `.` and `-` become `_` (so `server.req.put` → `server_req_put`)
//   - any other illegal character becomes `_`
//   - a leading digit is prefixed with `_`
//   - an empty name becomes `_`
//
// JSON snapshots and the text dump keep the original dotted names; only
// the Prometheus exposition is sanitized.
func SanitizePromName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default: // '.', '-', and anything else illegal
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFamily is one metric family prepared for exposition.
type promFamily struct {
	name string // sanitized
	orig string // registry name, shown in HELP
	typ  string // counter | gauge | histogram
	c    *Counter
	g    *Gauge
	h    *Histogram
	fn   func() float64
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): counters as `counter`, gauges
// and computed gauges as `gauge`, histograms as `histogram` families:
// one cumulative `_bucket{le=...}` line per non-empty bucket of the
// fixed layout (le is the bucket's upper edge, which the bucket itself
// excludes), then `le="+Inf"`, `_sum` and `_count`, all from one
// snapshot. Names are sanitized via
// SanitizePromName; when two registry names collide after sanitization
// the lexicographically first wins and the rest are skipped (a family
// may not repeat in an exposition). Safe on a nil registry (writes
// nothing).
func (r *Registry) WritePrometheus(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	var fams []promFamily
	r.mu.RLock()
	for k, v := range r.counters {
		fams = append(fams, promFamily{orig: k, typ: "counter", c: v})
	}
	for k, v := range r.gauges {
		fams = append(fams, promFamily{orig: k, typ: "gauge", g: v})
	}
	for k, v := range r.funcs {
		fams = append(fams, promFamily{orig: k, typ: "gauge", fn: v})
	}
	for k, v := range r.hists {
		fams = append(fams, promFamily{orig: k, typ: "histogram", h: v})
	}
	r.mu.RUnlock()
	for i := range fams {
		fams[i].name = SanitizePromName(fams[i].orig)
	}
	sort.Slice(fams, func(i, j int) bool {
		if fams[i].name != fams[j].name {
			return fams[i].name < fams[j].name
		}
		return fams[i].orig < fams[j].orig
	})

	var total int64
	write := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	// Values are read outside the registry lock — a GaugeFunc may take
	// subsystem locks of its own (same rule as Snapshot).
	prev := ""
	for _, f := range fams {
		if f.name == prev {
			continue // sanitized collision: first family wins
		}
		prev = f.name
		if err := write("# HELP %s directload metric %s\n# TYPE %s %s\n",
			f.name, f.orig, f.name, f.typ); err != nil {
			return total, err
		}
		var err error
		switch {
		case f.c != nil:
			err = write("%s %d\n", f.name, f.c.Load())
		case f.g != nil:
			err = write("%s %d\n", f.name, f.g.Load())
		case f.fn != nil:
			err = write("%s %g\n", f.name, f.fn())
		case f.h != nil:
			s := f.h.Snapshot()
			var cum int64
			for _, b := range s.Buckets {
				if b.Index == histBuckets-1 {
					break // the saturating bucket has no upper edge
				}
				cum += b.Count
				if err = write("%s_bucket{le=\"%g\"} %d\n", f.name, bucketLower(b.Index+1), cum); err != nil {
					return total, err
				}
			}
			err = write("%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
				f.name, s.Count, f.name, s.Mean*float64(s.Count), f.name, s.Count)
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
