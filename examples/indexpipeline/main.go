// Command indexpipeline runs the paper's Figure-1 pipeline end to end on
// one machine: crawl a synthetic web, build forward/inverted/summary
// indices, deduplicate against the previous crawl round with Bifrost,
// store everything in QinDB, and answer a search query from the stored
// indices.
//
//	go run ./examples/indexpipeline
package main

import (
	"fmt"
	"log"

	"directload/internal/bifrost"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/indexer"
	"directload/internal/ssd"
)

func main() {
	crawler, err := indexer.NewCrawler(indexer.CrawlConfig{
		Documents: 500, VIPRatio: 0.1, VocabSize: 2000,
		DocTerms: 60, MutateProb: 0.3, VIPMutateProb: 0.5, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One store for summary indices (<URL, abstract>) and one for
	// inverted indices (<term, URLs>), as in the paper's data centers.
	summaryDB, err := openStore(256 << 20)
	if err != nil {
		log.Fatal(err)
	}
	defer summaryDB.Close()
	invertedDB, err := openStore(256 << 20)
	if err != nil {
		log.Fatal(err)
	}
	defer invertedDB.Close()

	dedup := bifrost.NewDeduper()

	// Three crawl rounds = three index versions.
	for round := 1; round <= 3; round++ {
		downloaded := crawler.Crawl()
		corpus := crawler.Corpus()
		version := uint64(round)

		// Build the indices. Forward indices feed the inverted builder;
		// summaries come straight from the documents.
		forward := indexer.BuildForward(corpus)
		inverted := indexer.BuildInverted(forward)
		summaries := indexer.BuildSummary(corpus, 8)

		var kept, stripped int
		for _, s := range summaries {
			key, val := []byte("sum/"+s.URL), []byte(s.Abstract)
			if dedup.Process(key, val) {
				// Unchanged since the previous version: ship key only.
				if _, err := summaryDB.Put(key, version, nil, true); err != nil {
					log.Fatal(err)
				}
				stripped++
			} else {
				if _, err := summaryDB.Put(key, version, val, false); err != nil {
					log.Fatal(err)
				}
				kept++
			}
		}
		for _, e := range inverted {
			key, val := []byte("inv/"+e.Term), indexer.EncodeURLList(e.URLs)
			if dedup.Process(key, val) {
				if _, err := invertedDB.Put(key, version, nil, true); err != nil {
					log.Fatal(err)
				}
				stripped++
			} else {
				if _, err := invertedDB.Put(key, version, val, false); err != nil {
					log.Fatal(err)
				}
				kept++
			}
		}
		st := dedup.AdvanceVersion()
		fmt.Printf("round %d: crawled %4d docs, stored %5d entries, deduped %5d (%.0f%% of bytes saved)\n",
			round, len(downloaded), kept, stripped, 100*st.ByteRatio())

		// Retain at most 2 versions in this demo.
		summaryDB.RetainVersions(2)
		invertedDB.RetainVersions(2)
	}

	// Serve a query against the newest version, exactly like Figure 1:
	// terms -> inverted index -> URL chain -> summary index -> abstracts.
	corpus := crawler.Corpus()
	query := []string{corpus[0].Terms[0], corpus[0].Terms[1]}
	results := indexer.Search(query,
		func(term string) ([]string, bool) {
			v, _, _, err := invertedDB.GetLatest([]byte("inv/" + term))
			if err != nil {
				return nil, false
			}
			return indexer.DecodeURLList(v), true
		},
		func(url string) (string, bool) {
			v, _, _, err := summaryDB.GetLatest([]byte("sum/" + url))
			if err != nil {
				return "", false
			}
			return string(v), true
		},
		3)
	fmt.Printf("query %v -> %d results\n", query, len(results))
	for i, r := range results {
		fmt.Printf("  %d. %s\n     %s...\n", i+1, r.URL, clip(r.Abstract, 60))
	}
}

// openStore opens QinDB over a fresh simulated SSD of the given capacity
// (bytes), written block-aligned through the native interface.
func openStore(capacity int64) (*core.DB, error) {
	dev, err := ssd.NewDevice(ssd.DefaultConfig(capacity))
	if err != nil {
		return nil, err
	}
	return core.Open(blockfs.NewNativeFS(dev), core.DefaultOptions())
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
