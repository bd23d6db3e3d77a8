// Command quickstart shows the QinDB storage engine in five minutes:
// versioned PUT/GET/DEL, deduplicated entries with traceback, the lazy
// garbage collector, and crash recovery from the append-only files.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/ssd"
)

func main() {
	// A 256 MB simulated SSD with the paper's geometry (4 KB pages,
	// 256 KB erase blocks), written block-aligned via the native
	// interface — no hardware write amplification.
	dev, err := ssd.NewDevice(ssd.DefaultConfig(256 << 20))
	if err != nil {
		log.Fatal(err)
	}
	// The filesystem holds the file table and extent maps: state that
	// lives on the flash in a real deployment, so keep it to reopen.
	fs := blockfs.NewNativeFS(dev)
	db, err := core.Open(fs, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Versioned writes: every key carries a data version (k/t in the
	// paper). Version 1 is a full crawl.
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("http://example.com/page-%d", i)
		val := fmt.Sprintf("terms of page %d, crawl round 1", i)
		if _, err := db.Put([]byte(key), 1, []byte(val), false); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Deduplicated writes: in version 2 page-0 did not change, so
	// Bifrost stripped its value; the store records a NULL entry whose
	// GET traces back to version 1.
	if _, err := db.Put([]byte("http://example.com/page-0"), 2, nil, true); err != nil {
		log.Fatal(err)
	}
	val, _, err := db.Get([]byte("http://example.com/page-0"), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET page-0 @v2 (deduplicated) -> %q\n", val)

	// 3. Deletion is lazy: DEL flips a flag and updates the GC table;
	// flash space is reclaimed later, when a file's occupancy drops
	// below the threshold.
	if _, err := db.Del([]byte("http://example.com/page-1"), 1); err != nil {
		log.Fatal(err)
	}
	if _, _, err := db.Get([]byte("http://example.com/page-1"), 1); err != nil {
		fmt.Printf("GET page-1 @v1 after DEL -> %v\n", err)
	}

	// 4. Range scans over the newest live versions (the capability
	// hash-based KV stores lack, paper §6.1).
	fmt.Println("range scan:")
	db.Range(nil, nil, func(key []byte, ver uint64) bool {
		fmt.Printf("  %s @v%d\n", key, ver)
		return true
	})

	st := db.Stats()
	fmt.Printf("stats: %d memtable items, %d puts, user bytes written %d\n",
		st.Keys, st.Puts, st.UserWriteBytes)

	// 5. Crash recovery: close ("crash") and reopen over the same flash.
	// The memtable and GC table are rebuilt by scanning the AOFs.
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	db2, err := core.Open(fs, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	val, _, err = db2.Get([]byte("http://example.com/page-0"), 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after recovery, GET page-0 @v2 -> %q\n", val)
	fmt.Printf("device: %d bytes programmed to flash\n", dev.Stats().SysWriteBytes)
}
