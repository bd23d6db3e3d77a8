// Command qindbctl is a command-line client for a qindbd storage node.
//
//	qindbctl -addr 127.0.0.1:7707 put  <key> <version> <value>
//	qindbctl -addr 127.0.0.1:7707 putd <key> <version>          # dedup put
//	qindbctl -addr 127.0.0.1:7707 get  <key> <version>
//	qindbctl -addr 127.0.0.1:7707 del  <key> <version>
//	qindbctl -addr 127.0.0.1:7707 drop <version>
//	qindbctl -addr 127.0.0.1:7707 range [<from> [<to>]]
//	qindbctl -addr 127.0.0.1:7707 load <version>                # batched key<TAB>value lines from stdin
//	qindbctl -addr 127.0.0.1:7707 stats
//	qindbctl -addr 127.0.0.1:7707 ping
//	qindbctl -http 127.0.0.1:8080 metrics
//	qindbctl -http 127.0.0.1:8080 stats -watch [-interval 1s]
//	qindbctl -http 127.0.0.1:8080 slowlog [-n 20] [-op get]
//	qindbctl fleet -nodes 'a,b,c' <put|get|drop|load|where>  # shard router over several nodes
//
// -timeout bounds each operation (and the dial); load streams stdin
// into OpBatch frames, one round trip per batch instead of per record.
// metrics, stats -watch and slowlog talk to the daemon's operator HTTP
// address (qindbd -metrics-addr) instead of the storage port. For profiles point go
// tool pprof at the same address (qindbd -pprof):
// go tool pprof http://HOST/debug/pprof/allocs?seconds=5. stats -watch
// shows each counter's delta and each histogram's p99 over the last
// interval, not since start. fleet ignores -addr and routes to its
// -nodes with rendezvous placement, quorum writes and hedged reads (see
// internal/fleet).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"directload/internal/metrics"
	"directload/internal/server"
)

var (
	addr     = flag.String("addr", "127.0.0.1:7707", "qindbd address")
	httpAddr = flag.String("http", "127.0.0.1:8080", "qindbd operator HTTP address (for metrics, stats -watch and slowlog)")
	timeout  = flag.Duration("timeout", 5*time.Second, "per-operation deadline (0 = none)")
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: qindbctl [-addr host:port] [-timeout 5s] <put|putd|get|del|drop|range|load|stats|metrics|ping|slowlog|fleet> [args]")
	fmt.Fprintln(os.Stderr, "       load <version>                  batched load of key<TAB>value lines from stdin")
	fmt.Fprintln(os.Stderr, "       stats [-watch] [-interval 1s]   engine stats, or live metric deltas with each interval's")
	fmt.Fprintln(os.Stderr, "                                       p99 and a runtime line (heap-live, gc-cycles, goroutines; -http address)")
	fmt.Fprintln(os.Stderr, "       metrics                         the metrics registry as text (-http address)")
	fmt.Fprintln(os.Stderr, "       slowlog [-n N] [-op get]        recent slow operations (-http address)")
	fmt.Fprintln(os.Stderr, "       fleet -nodes 'a,b,c' <cmd>      shard router over several nodes (fleet -h)")
	os.Exit(2)
}

// fetchHTTP GETs a path on the daemon's operator HTTP address and
// returns the body.
func fetchHTTP(path string) []byte {
	client := &http.Client{Timeout: *timeout}
	url := "http://" + *httpAddr + path
	resp, err := client.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v (is qindbd running with -metrics-addr %s?)", url, err, *httpAddr)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		log.Fatalf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	return body
}

func parseVersion(s string) uint64 {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		log.Fatalf("bad version %q: %v", s, err)
	}
	return v
}

func main() {
	log.SetFlags(0)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cmd, args := args[0], args[1:]
	// metrics, stats -watch and slowlog talk to the operator HTTP address
	// only — no reason to require the storage port to be dialable.
	switch cmd {
	case "metrics":
		os.Stdout.Write(fetchHTTP("/metrics"))
		return
	case "stats":
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		watch := fs.Bool("watch", false, "poll the server and print metric deltas until interrupted")
		interval := fs.Duration("interval", time.Second, "poll interval with -watch")
		fs.Parse(args)
		if *watch {
			watchStats(*interval)
			return
		}
	case "slowlog":
		fs := flag.NewFlagSet("slowlog", flag.ExitOnError)
		n := fs.Int("n", 0, "show only the newest N entries (0 = all retained)")
		op := fs.String("op", "", "show only this operation (put, get, batch, ...)")
		fs.Parse(args)
		path := fmt.Sprintf("/debug/slowlog?n=%d", *n)
		if *op != "" {
			path += "&op=" + *op
		}
		os.Stdout.Write(fetchHTTP(path))
		return
	case "fleet":
		// The router dials its own nodes; -addr is not involved.
		runFleet(args)
		return
	}

	cl, err := server.Dial(*addr, server.WithTimeout(*timeout))
	if err != nil {
		log.Fatalf("dial %s: %v", *addr, err)
	}
	defer cl.Close()
	ctx := context.Background()

	switch cmd {
	case "put":
		if len(args) != 3 {
			usage()
		}
		if err := cl.PutContext(ctx, []byte(args[0]), parseVersion(args[1]), []byte(args[2]), false); err != nil {
			log.Fatal(err)
		}
		fmt.Println("OK")
	case "putd":
		if len(args) != 2 {
			usage()
		}
		if err := cl.PutContext(ctx, []byte(args[0]), parseVersion(args[1]), nil, true); err != nil {
			log.Fatal(err)
		}
		fmt.Println("OK")
	case "get":
		if len(args) != 2 {
			usage()
		}
		val, err := cl.GetContext(ctx, []byte(args[0]), parseVersion(args[1]))
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(val)
		fmt.Println()
	case "del":
		if len(args) != 2 {
			usage()
		}
		if err := cl.DelContext(ctx, []byte(args[0]), parseVersion(args[1])); err != nil {
			log.Fatal(err)
		}
		fmt.Println("OK")
	case "drop":
		if len(args) != 1 {
			usage()
		}
		if err := cl.DropVersionContext(ctx, parseVersion(args[0])); err != nil {
			log.Fatal(err)
		}
		fmt.Println("OK")
	case "range":
		var from, to []byte
		if len(args) > 0 {
			from = []byte(args[0])
		}
		if len(args) > 1 {
			to = []byte(args[1])
		}
		entries, applied, err := cl.RangeContext(ctx, from, to, 0)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range entries {
			fmt.Printf("%s\t@v%d\n", e.Key, e.Version)
		}
		if applied > 0 && len(entries) == applied {
			fmt.Fprintf(os.Stderr, "(truncated at server limit %d)\n", applied)
		}
	case "load":
		if len(args) != 1 {
			usage()
		}
		loadStdin(ctx, cl, parseVersion(args[0]))
	case "stats":
		st, err := cl.StatsContext(ctx)
		if err != nil {
			log.Fatal(err)
		}
		out, _ := json.MarshalIndent(st, "", "  ")
		fmt.Println(string(out))
	case "ping":
		if err := cl.PingContext(ctx); err != nil {
			log.Fatal(err)
		}
		fmt.Println("pong")
	default:
		usage()
	}
}

// loadStdin streams key<TAB>value lines into batched puts. A line
// without a tab stores its whole content as the key with an empty
// value.
func loadStdin(ctx context.Context, cl *server.Client, version uint64) {
	batch := cl.Batcher()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var n int
	start := time.Now()
	for sc.Scan() {
		key, value, _ := strings.Cut(sc.Text(), "\t")
		if key == "" {
			continue
		}
		if err := batch.Put(ctx, []byte(key), version, []byte(value), false); err != nil {
			log.Fatalf("line %d: %v", n+1, err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if err := batch.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("loaded %d records @v%d in %s (%.0f/s)\n",
		n, version, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
}

// runtimeSummary condenses the runtime.* gauges into one line for the
// -watch header: live heap, GC cycles since the previous poll (since
// process start on the first) and goroutine count. Returns "" when the
// server exports no runtime gauges.
func runtimeSummary(m map[string]any, prev map[string]float64) string {
	heap, okHeap := m["runtime.heap.live_bytes"].(float64)
	cycles, okCycles := m["runtime.gc.cycles"].(float64)
	gor, okGor := m["runtime.goroutines"].(float64)
	if !okHeap && !okCycles && !okGor {
		return ""
	}
	return fmt.Sprintf("runtime: heap-live %.1f MiB   gc-cycles %+.0f   goroutines %.0f",
		heap/(1<<20), cycles-prev["runtime.gc.cycles"], gor)
}

// watchStats polls /metrics?format=json and renders per-interval deltas,
// top-like, until the process is interrupted. A scalar row shows its
// value; a histogram row its count plus the p99 of the observations
// made since the previous poll — the snapshots carry their buckets, so
// successive polls subtract (since process start on the first poll, "-"
// when there were none). A runtime summary line (heap-live, gc-cycles,
// goroutines) rides under the timestamp header when the server exports
// the runtime gauges.
func watchStats(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	prev := make(map[string]float64)
	prevHist := make(map[string]metrics.Snapshot)
	for first := true; ; first = false {
		m := make(map[string]any)
		if err := json.Unmarshal(fetchHTTP("/metrics?format=json"), &m); err != nil {
			log.Fatal(err)
		}
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		if !first {
			fmt.Println()
		}
		fmt.Printf("--- %-44s %14s %12s %12s ---\n",
			time.Now().Format("15:04:05"), "value", "delta", "interval-p99")
		if s := runtimeSummary(m, prev); s != "" {
			fmt.Println(s)
		}
		for _, name := range names {
			value, isScalar := m[name].(float64)
			p99 := ""
			if !isScalar {
				var snap metrics.Snapshot
				raw, _ := json.Marshal(m[name])
				if json.Unmarshal(raw, &snap) != nil {
					continue
				}
				value, p99 = float64(snap.Count), "-"
				if ivl := snap.Sub(prevHist[name]); ivl.Count > 0 {
					p99 = fmt.Sprintf("%.1f", ivl.P99)
				}
				prevHist[name] = snap
			}
			delta := ""
			if d := value - prev[name]; !first && d != 0 {
				delta = fmt.Sprintf("%+g", d)
			}
			fmt.Printf("%-48s %14g %12s %12s\n", name, value, delta, p99)
			prev[name] = value
		}
		time.Sleep(interval)
	}
}
