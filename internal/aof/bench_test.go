package aof

import (
	"testing"
	"time"

	"directload/internal/blockfs"
	"directload/internal/ssd"
)

// BenchmarkAOFAppendAligned appends records encoded to exactly one
// flash page each, the geometry the paper's ~2.5x write-amplification
// claim rests on.
func BenchmarkAOFAppendAligned(b *testing.B) {
	cfg := ssd.Config{
		PageSize:      4096,
		PagesPerBlock: 64,
		Blocks:        4096, // 1 GiB: plenty for fixed-benchtime runs
		Latency: ssd.LatencyModel{
			PageRead: 80 * time.Microsecond, PageWrite: 200 * time.Microsecond,
			BlockErase: 1500 * time.Microsecond, Channels: 1,
		},
	}
	d, err := ssd.NewDevice(cfg)
	if err != nil {
		b.Fatal(err)
	}
	st, err := Open(blockfs.NewNativeFS(d), Config{FileSize: 16 << 20, GCThreshold: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	key := []byte("bench/key/0001")
	rec := Record{
		Key:   key,
		Value: make([]byte, cfg.PageSize-headerSize-len(key)),
	}
	b.SetBytes(int64(cfg.PageSize))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Version = uint64(i + 1)
		if _, _, _, err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
