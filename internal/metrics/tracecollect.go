package metrics

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceExport is the machine-readable payload served by the operator
// endpoint /debug/trace?id=&format=json: one node's retained spans for
// one trace, plus the node's self-reported identity.
type TraceExport struct {
	Node    string       `json:"node,omitempty"`
	TraceID string       `json:"trace_id"` // hex, matching ?id=
	Spans   []SpanRecord `json:"spans"`
}

// NodeTrace is one node's contribution to a collected trace — either
// its spans or the fetch error that kept them out of the merge.
type NodeTrace struct {
	Endpoint string       `json:"endpoint"`
	Node     string       `json:"node,omitempty"`
	Spans    []SpanRecord `json:"spans,omitempty"`
	Err      string       `json:"err,omitempty"`
}

// MergedTrace is one trace's fleet-wide timeline: every span fetched
// from every reachable node (plus the collector's local tracer, when
// attached), node-stamped and start-sorted.
type MergedTrace struct {
	TraceID uint64       `json:"trace_id"`
	Nodes   []NodeTrace  `json:"nodes"`
	Spans   []SpanRecord `json:"spans"`
}

// NodeCount returns how many distinct nodes contributed at least one
// span to the merged timeline.
func (m MergedTrace) NodeCount() int {
	seen := make(map[string]bool)
	for _, s := range m.Spans {
		seen[s.Node] = true
	}
	return len(seen)
}

// TraceCollector fetches one trace ID's spans from every node's
// operator endpoint and merges them into a single fleet-wide timeline —
// the cross-node view a quorum write otherwise loses at each process
// boundary. The zero value needs only Endpoints; Collect is safe for
// concurrent use.
type TraceCollector struct {
	// Endpoints are operator HTTP addresses ("host:port" or full
	// http:// URLs), one per node — the same addresses qindbd's
	// -metrics-addr binds.
	Endpoints []string
	// Local, when non-nil, contributes the collector's own in-process
	// spans (e.g. the fleet router's) labeled LocalNode.
	Local *Tracer
	// LocalNode names the local tracer's spans (default "local").
	LocalNode string
	// Client overrides the HTTP client (default: 5 s timeout).
	Client *http.Client
}

// errNoSpans is returned when every endpoint answered but none retained
// the trace.
var errNoSpans = errors.New("metrics: no spans retained for trace")

// Collect fetches the trace from every endpoint in parallel and merges
// the results. It returns an error only when nothing was collected at
// all — per-node failures are reported in the Nodes slice so a partial
// fleet still yields a partial timeline.
func (c *TraceCollector) Collect(ctx context.Context, id uint64) (MergedTrace, error) {
	out := MergedTrace{TraceID: id, Nodes: make([]NodeTrace, len(c.Endpoints))}
	client := c.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	var wg sync.WaitGroup
	for i, ep := range c.Endpoints {
		wg.Add(1)
		go func(i int, ep string) {
			defer wg.Done()
			out.Nodes[i] = fetchNodeTrace(ctx, client, ep, id)
		}(i, ep)
	}
	wg.Wait()
	if c.Local != nil {
		node := c.LocalNode
		if node == "" {
			node = "local"
		}
		out.Nodes = append(out.Nodes, NodeTrace{Endpoint: "(local)", Node: node, Spans: c.Local.Trace(id)})
	}
	fetched := false
	for i := range out.Nodes {
		nt := &out.Nodes[i]
		if nt.Err == "" {
			fetched = true
		}
		if nt.Node == "" {
			nt.Node = nt.Endpoint
		}
		for _, s := range nt.Spans {
			if s.Node == "" {
				s.Node = nt.Node
			}
			out.Spans = append(out.Spans, s)
		}
	}
	sort.SliceStable(out.Spans, func(i, j int) bool { return out.Spans[i].Start.Before(out.Spans[j].Start) })
	if !fetched {
		var errs []error
		for _, nt := range out.Nodes {
			errs = append(errs, fmt.Errorf("%s: %s", nt.Endpoint, nt.Err))
		}
		return out, fmt.Errorf("metrics: trace collect %016x: %w", id, errors.Join(errs...))
	}
	if len(out.Spans) == 0 {
		return out, fmt.Errorf("%w %016x", errNoSpans, id)
	}
	return out, nil
}

// fetchNodeTrace GETs one node's /debug/trace?id=&format=json export.
func fetchNodeTrace(ctx context.Context, client *http.Client, endpoint string, id uint64) NodeTrace {
	nt := NodeTrace{Endpoint: endpoint}
	url := endpoint
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimSuffix(url, "/") + fmt.Sprintf("/debug/trace?id=%016x&format=json", id)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		nt.Err = err.Error()
		return nt
	}
	resp, err := client.Do(req)
	if err != nil {
		nt.Err = err.Error()
		return nt
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		nt.Err = fmt.Sprintf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
		return nt
	}
	var export TraceExport
	if err := json.NewDecoder(resp.Body).Decode(&export); err != nil {
		nt.Err = "decoding export: " + err.Error()
		return nt
	}
	nt.Node = export.Node
	nt.Spans = export.Spans
	return nt
}

// WriteTimeline renders the trace as one indented timeline: each span on
// a line with its offset from the trace's first span, duration, note and
// error, children nested under their parents. Spans whose parent is not
// retained surface at top level rather than vanishing. Each span is
// prefixed by the node that recorded it; a trace whose spans name no
// node (one process's tracer, MergedTrace{TraceID, Spans: t.Trace(id)})
// leaves that column out. Children nest under their parents even across
// node boundaries — that is the point of collecting: a remote server
// span whose parent is the router's client span renders under it.
func (m MergedTrace) WriteTimeline(w io.Writer) (int64, error) {
	var total int64
	write := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	for _, nt := range m.Nodes {
		if nt.Err != "" {
			if err := write("# %s (%s): %s\n", nt.Node, nt.Endpoint, nt.Err); err != nil {
				return total, err
			}
		}
	}
	if len(m.Spans) == 0 {
		return total, write("trace %016x: no spans retained\n", m.TraceID)
	}
	nodeWidth := 0
	byID := make(map[uint64]bool, len(m.Spans))
	children := make(map[uint64][]SpanRecord, len(m.Spans))
	var roots []SpanRecord
	for _, s := range m.Spans {
		byID[s.SpanID] = true
		if len(s.Node) > nodeWidth {
			nodeWidth = len(s.Node)
		}
	}
	for _, s := range m.Spans {
		if s.ParentID != 0 && byID[s.ParentID] {
			children[s.ParentID] = append(children[s.ParentID], s)
		} else {
			roots = append(roots, s)
		}
	}
	t0 := m.Spans[0].Start
	header := fmt.Sprintf("trace %016x: %d spans", m.TraceID, len(m.Spans))
	if nodeWidth > 0 {
		header += fmt.Sprintf(" across %d node(s)", m.NodeCount())
	}
	if err := write("%s\n", header); err != nil {
		return total, err
	}
	var dump func(s SpanRecord, depth int) error
	dump = func(s SpanRecord, depth int) error {
		suffix := ""
		if s.Note != "" {
			suffix += " " + s.Note
		}
		if s.Err != "" {
			suffix += " err=" + s.Err
		}
		node := ""
		if nodeWidth > 0 {
			node = fmt.Sprintf("[%-*s] ", nodeWidth, s.Node)
		}
		if err := write("%s%*s+%-12s %-28s %12s%s\n",
			node, 2*depth, "",
			s.Start.Sub(t0).Round(time.Microsecond).String(),
			s.Name, s.Dur.Round(time.Microsecond), suffix); err != nil {
			return err
		}
		for _, c := range children[s.SpanID] {
			if err := dump(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := dump(r, 1); err != nil {
			return total, err
		}
	}
	return total, nil
}
