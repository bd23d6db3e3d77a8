// Command storagenode runs a QinDB storage node over TCP in-process and
// talks to it through the client — the wire-level view of a single Mint
// node serving deduplicated index data. It demonstrates the client
// surface (context-aware calls, batched publishes, pipelined reads) and
// the operator surface: metrics and the /healthz and /debug endpoints.
//
//	go run ./examples/storagenode
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/ops"
	"directload/internal/server"
	"directload/internal/ssd"
)

func main() {
	// One registry instruments everything: the engine and the server —
	// and, via the ops server, exposes it all over HTTP.
	reg := metrics.NewRegistry()
	slow := metrics.NewSlowLog(0, 5*time.Millisecond)

	// The node: a QinDB engine behind a TCP listener.
	dev, err := ssd.NewDevice(ssd.DefaultConfig(256 << 20))
	if err != nil {
		log.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Metrics = reg
	db, err := core.Open(blockfs.NewNativeFS(dev), opts)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	node := server.New(db)
	node.SetMetrics(reg)
	node.SetSlowLog(slow)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go node.Serve(ln)
	defer node.Close()
	fmt.Printf("storage node listening on %s\n", ln.Addr())

	// Operator endpoints: /metrics (?format=prom for scrapers),
	// /healthz, /debug/slowlog.
	opsSrv, err := ops.Listen("127.0.0.1:0", ops.Config{
		Registry: reg,
		SlowLog:  slow,
	})
	if err != nil {
		log.Fatal(err)
	}
	go opsSrv.Serve()
	fmt.Printf("operator endpoints on http://%s/metrics\n", opsSrv.Addr())

	// The dial performs the hello exchange; WithTimeout bounds every
	// call whose context carries no deadline.
	cl, err := server.Dial(ln.Addr().String(), server.WithTimeout(2*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Publish version 1 as one batch: a single OpBatch round trip
	// instead of one per record.
	batch := cl.Batcher()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("url/page-%02d", i)
		value := fmt.Sprintf("content of page %d", i)
		if err := batch.Put(ctx, []byte(key), 1, []byte(value), false); err != nil {
			log.Fatal(err)
		}
	}
	if err := batch.Flush(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("published v1: 5 records in one batch")

	// Version 2 arrives deduplicated for page-00 (unchanged content).
	if err := cl.PutContext(ctx, []byte("url/page-00"), 2, nil, true); err != nil {
		log.Fatal(err)
	}
	val, err := cl.GetContext(ctx, []byte("url/page-00"), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET url/page-00 @v2 -> %q (traceback server-side)\n", val)

	// Pipelined reads: concurrent callers share the one connection —
	// all five gets are on the wire at once and complete concurrently
	// on the server, matched back to their callers by sequence number.
	var wg sync.WaitGroup
	vals := make([][]byte, 5)
	errs := make([]error, 5)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = cl.GetContext(ctx, []byte(fmt.Sprintf("url/page-%02d", i)), 1)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
	fmt.Println("pipelined gets:")
	for i, v := range vals {
		fmt.Printf("  url/page-%02d @v1 -> %d bytes\n", i, len(v))
	}

	// Range with the server's default limit; the reply reports the
	// limit that applied so callers can detect truncation.
	entries, applied, err := cl.RangeContext(ctx, []byte("url/page-01"), []byte("url/page-04"), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("range scan over the wire (server limit %d):\n", applied)
	for _, e := range entries {
		fmt.Printf("  %s @v%d\n", e.Key, e.Version)
	}

	st, err := cl.StatsContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node stats: %d puts, %d gets, %d bytes written, %d conns\n",
		st.Engine.Puts, st.Engine.Gets, st.Engine.UserWriteBytes, st.Conns)

	// Drain the operator HTTP server under a deadline; a shutdown error
	// (a stuck scrape, a dead listener) is worth reporting, not
	// discarding.
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := opsSrv.Shutdown(shutCtx); err != nil {
		log.Printf("ops server shutdown: %v", err)
	}
}
