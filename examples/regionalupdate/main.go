// Command regionalupdate drives the full DirectLoad deployment: a
// builder data center publishing versioned index data through Bifrost
// deduplication to six data centers in three regions, followed by the
// operational lifecycle of paper §3 — gray release on one data center,
// cross-region consistency audit, promotion, and a rollback after a
// simulated bad release.
//
//	go run ./examples/regionalupdate
package main

import (
	"fmt"
	"log"

	"directload/internal/bifrost"
	"directload/internal/cluster"
	"directload/internal/workload"
)

func main() {
	cfg := cluster.DefaultConfig()
	cfg.Mint.NodeCapacity = 128 << 20
	sys, err := cluster.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	gen, err := workload.NewGenerator(workload.KVConfig{
		Keys: 400, ValueSize: 8 << 10, ValueSizeStdDev: 1 << 10,
		DupRatio: 0.7, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	publish := func(version uint64) cluster.UpdateReport {
		var entries []cluster.Entry
		gen.NextVersion(func(e workload.Entry) error {
			entries = append(entries, cluster.Entry{
				Key: e.Key, Value: e.Value, Stream: bifrost.StreamInverted,
			})
			// A small summary record per key, stored in 3 of the 6 DCs.
			entries = append(entries, cluster.Entry{
				Key:    append([]byte("s/"), e.Key...),
				Value:  e.Value[:256],
				Stream: bifrost.StreamSummary,
			})
			return nil
		})
		rep, err := sys.PublishVersion(version, entries)
		if err != nil {
			log.Fatalf("publish v%d: %v", version, err)
		}
		fmt.Printf("v%d: %5d keys, %5.1f MB payload -> %5.1f MB on the wire "+
			"(%4.1f%% saved), update time %v\n",
			version, rep.Keys,
			float64(rep.PayloadBytes)/(1<<20), float64(rep.WireBytes)/(1<<20),
			100*(1-float64(rep.WireBytes)/float64(rep.PayloadBytes)),
			rep.UpdateTime.Round(1e6))
		return rep
	}

	// Version 1: the initial full load (nothing to deduplicate yet).
	publish(1)
	if err := sys.ActivateEverywhere(1); err != nil {
		log.Fatal(err)
	}

	// Version 2: ~70% of values unchanged; Bifrost strips them.
	publish(2)

	// Gray release on one data center only (paper §3).
	grayDC := sys.Top.Regions[0].DCs[0]
	if err := sys.GrayRelease(2, grayDC); err != nil {
		log.Fatal(err)
	}
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = gen.Key(i)
	}
	fmt.Printf("gray release of v2 on %s: cross-region inconsistency %.2f%%\n",
		grayDC, 100*sys.AuditConsistency(keys))

	// The gray period looked fine: promote everywhere.
	if err := sys.ActivateEverywhere(2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v2 active everywhere: inconsistency %.2f%%\n",
		100*sys.AuditConsistency(keys))

	// Version 3 misbehaves during gray release -> rollback.
	publish(3)
	if err := sys.GrayRelease(3, grayDC); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gray release of v3 on %s... malfunction detected, rolling back\n", grayDC)
	if err := sys.Rollback(3, 2); err != nil {
		log.Fatal(err)
	}
	val, _, err := sys.Get(grayDC, gen.Key(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after rollback %s serves v2 (%d-byte value for key 0)\n", grayDC, len(val))

	// Keep publishing: the retention policy holds at most 4 versions.
	publish(4)
	publish(5)
	fmt.Printf("retained versions: %v (paper: at most four)\n", sys.Versions())
	fmt.Printf("shipper: %d deliveries, miss ratio %.3f%%\n",
		sys.Shipper.Stats().Deliveries, 100*sys.Shipper.MissRatio())
}
