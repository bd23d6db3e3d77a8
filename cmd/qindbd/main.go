// Command qindbd runs a standalone QinDB storage node over TCP — the
// network face a Mint storage node presents inside a data center. The
// engine persists to a simulated SSD (the process's memory), which makes
// the daemon useful for protocol integration and load testing rather
// than durable storage.
//
//	go run ./cmd/qindbd -addr 127.0.0.1:7707 -capacity 1073741824
//
// Interact with it through internal/server.Client, e.g.:
//
//	cl, _ := server.Dial("127.0.0.1:7707", server.WithTimeout(2*time.Second))
//	cl.PutContext(ctx, []byte("k"), 1, []byte("v"), false)
//
// Every connection opens with one hello exchange and is pipelined from
// then on: clients may keep many requests in flight or batch them; the
// server dispatches up to 64 of them concurrently per connection.
//
// With -resp-addr set the daemon additionally serves the same engine
// over RESP2 (the Redis protocol), so redis-cli and off-the-shelf Redis
// clients work out of the box:
//
//	go run ./cmd/qindbd -addr 127.0.0.1:7707 -resp-addr 127.0.0.1:6379
//	redis-cli -p 6379 SET greeting hello
//
// Both listeners share one server.Backend — one engine, one set of
// server.* metrics, one slowlog.
//
// With -metrics-addr set the daemon exposes the operator endpoints of
// internal/ops: /metrics (text, ?format=json, ?format=prom), /healthz,
// /readyz, /debug/slowlog,
// /debug/attrib (per-op resource attribution, see -attr-sample), and
// (with -pprof) the runtime profiler under /debug/pprof/ (go tool pprof
// http://ADDR/debug/pprof/allocs?seconds=5 captures a windowed delta).
// The read SLO is two lifetime counters, slo.node.read.{good,bad}, and
// the Go runtime's telemetry (heap, GC, goroutines) is runtime.* gauges
// read at scrape time; a scraper rates both over its own interval.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/ops"
	"directload/internal/resp"
	"directload/internal/server"
	"directload/internal/ssd"
)

var (
	addr          = flag.String("addr", "127.0.0.1:7707", "listen address")
	respAddr      = flag.String("resp-addr", "", "Redis-compatible (RESP2) listen address (empty = off)")
	capacity      = flag.Int64("capacity", 1<<30, "simulated SSD capacity in bytes")
	aofSize       = flag.Int64("aof", 64<<20, "AOF file size in bytes (paper: 64 MB)")
	gcThresh      = flag.Float64("gc", 0.25, "lazy GC occupancy threshold (paper: 0.25)")
	ckpt          = flag.Int64("checkpoint", 256<<20, "auto-checkpoint every N bytes (0 = off)")
	metricsAddr   = flag.String("metrics-addr", "", "HTTP address for the operator endpoints (empty = off)")
	pprofOn       = flag.Bool("pprof", false, "mount /debug/pprof/* on the metrics address")
	slowThresh    = flag.Duration("slowlog-threshold", 10*time.Millisecond, "record ops at or above this latency in /debug/slowlog (0 = off)")
	sloReadTarget = flag.Float64("slo-read-target", 0.006, "tolerated get-miss ratio for the read SLO (paper: 0.006; 0 = off)")
	attrSample    = flag.Int("attr-sample", 64, "measure one request in N for per-op resource attribution on /debug/attrib (0 = off)")
)

// shutdownGrace bounds draining the operator HTTP server on shutdown.
const shutdownGrace = 3 * time.Second

// readiness builds the /readyz check: the engine must be open.
func readiness(db *core.DB) func() error {
	return func() error {
		if db.Health().Closed {
			return errors.New("engine closed")
		}
		return nil
	}
}

func main() {
	log.SetFlags(log.LstdFlags)
	flag.Parse()

	reg := metrics.NewRegistry()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(*capacity))
	if err != nil {
		log.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF:                  aof.Config{FileSize: *aofSize, GCThreshold: *gcThresh},
		CheckpointEveryBytes: *ckpt,
		Metrics:              reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Zero capacity selects the ring's default of 256 slow ops.
	slow := metrics.NewSlowLog(0, *slowThresh)
	var readSLO *metrics.SLO
	if *sloReadTarget > 0 {
		readSLO = metrics.NewSLO(metrics.SLOConfig{Name: "node.read", Target: *sloReadTarget})
		readSLO.Register(reg)
	}
	s := server.New(db)
	s.SetMetrics(reg)
	s.SetSlowLog(slow)
	s.SetReadSLO(readSLO)
	if *attrSample > 0 {
		// Sampled per-op resource attribution across every front door,
		// served at /debug/attrib on the metrics address.
		s.SetAttribution(*attrSample)
	}
	metrics.RegisterRuntime(reg)

	var respSrv *resp.Server
	if *respAddr != "" {
		// The RESP front door shares the native listener's Backend:
		// same engine, same server.* metrics, same slowlog and SLO.
		respSrv = resp.New(s.Backend())
		respSrv.SetNode(*addr)
		go func() {
			if err := respSrv.ListenAndServe(*respAddr); err != nil {
				log.Printf("qindbd: resp listener: %v", err)
			}
		}()
		log.Printf("qindbd: RESP (Redis-compatible) listener on %s", *respAddr)
	}
	var opsSrv *ops.Server
	if *metricsAddr != "" {
		opsSrv, err = ops.Listen(*metricsAddr, ops.Config{
			Registry:    reg,
			SlowLog:     slow,
			Ready:       readiness(db),
			EnablePprof: *pprofOn,
			Attrib:      s.Backend().Attribution,
		})
		if err != nil {
			log.Fatal(err)
		}
		go opsSrv.Serve()
		log.Printf("qindbd: operator endpoints on http://%s/metrics", opsSrv.Addr())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Println("shutting down")
		if respSrv != nil {
			respSrv.Close()
		}
		s.Close()
	}()
	log.Printf("qindbd: serving on %s (capacity %d MB, AOF %d MB, GC threshold %.2f)",
		*addr, *capacity>>20, *aofSize>>20, *gcThresh)
	if err := s.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
	// Drain the operator HTTP server under a deadline; a scrape stuck
	// past the grace period is reported, not silently abandoned.
	if opsSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if err := opsSrv.Shutdown(ctx); err != nil {
			log.Printf("qindbd: metrics server shutdown: %v", err)
		}
		cancel()
	}
	st := db.Stats()
	log.Printf("qindbd: stopped after %d puts / %d gets, %d MB user writes",
		st.Puts, st.Gets, st.UserWriteBytes>>20)
}
