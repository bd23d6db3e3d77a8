package resp

import (
	"fmt"
	"net"
	"testing"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/server"
	"directload/internal/ssd"
)

// benchRESP starts a RESP listener over a fresh engine and returns a
// connected client.
func benchRESP(b *testing.B) *Client {
	b.Helper()
	dev, err := ssd.NewDevice(ssd.DefaultConfig(1 << 30))
	if err != nil {
		b.Fatal(err)
	}
	db, err := core.Open(blockfs.NewNativeFS(dev), core.Options{
		AOF: aof.Config{FileSize: 16 << 20, GCThreshold: 0.25}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := New(server.NewBackend(db))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	b.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	return cl
}

// benchWindow is the pipelining depth: how many commands ride on the
// wire before the benchmark drains their replies. redis-benchmark's -P
// flag is the same knob.
const benchWindow = 128

func benchRESPKey(i int) string {
	return fmt.Sprintf("bench/%05d", i%10000)
}

// BenchmarkRESPPipelinedSet measures pipelined SET throughput through
// the RESP front door — the number to hold against the native wire's
// pipelined puts (BenchmarkRemotePublish in internal/server).
func BenchmarkRESPPipelinedSet(b *testing.B) {
	cl := benchRESP(b)
	val := []byte("payload-0123456789abcdef-0123456789abcdef")
	b.ResetTimer()
	inFlight := 0
	drain := func() {
		if err := cl.Flush(); err != nil {
			b.Fatal(err)
		}
		for ; inFlight > 0; inFlight-- {
			r, err := cl.Receive()
			if err != nil {
				b.Fatal(err)
			}
			if r.Str != "OK" {
				b.Fatalf("SET = %+v", r)
			}
		}
	}
	for n := 0; n < b.N; n++ {
		if err := cl.Send([]byte("SET"), []byte(benchRESPKey(n)), val); err != nil {
			b.Fatal(err)
		}
		if inFlight++; inFlight == benchWindow {
			drain()
		}
	}
	drain()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkRESPPipelinedGet measures pipelined GET throughput over a
// pre-populated keyspace.
func BenchmarkRESPPipelinedGet(b *testing.B) {
	cl := benchRESP(b)
	val := []byte("payload-0123456789abcdef-0123456789abcdef")
	for i := 0; i < 10000; i++ {
		if err := cl.Send([]byte("SET"), []byte(benchRESPKey(i)), val); err != nil {
			b.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if r, err := cl.Receive(); err != nil || r.Str != "OK" {
			b.Fatalf("seed SET %d = %+v, %v", i, r, err)
		}
	}
	b.ResetTimer()
	inFlight := 0
	drain := func() {
		if err := cl.Flush(); err != nil {
			b.Fatal(err)
		}
		for ; inFlight > 0; inFlight-- {
			r, err := cl.Receive()
			if err != nil {
				b.Fatal(err)
			}
			if r.IsNil() {
				b.Fatal("GET returned nil for a seeded key")
			}
		}
	}
	for n := 0; n < b.N; n++ {
		if err := cl.Send([]byte("GET"), []byte(benchRESPKey(n))); err != nil {
			b.Fatal(err)
		}
		if inFlight++; inFlight == benchWindow {
			drain()
		}
	}
	drain()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
