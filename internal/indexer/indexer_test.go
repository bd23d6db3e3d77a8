package indexer

import (
	"sort"
	"strings"
	"testing"
)

func testCrawler(t *testing.T) *Crawler {
	t.Helper()
	cfg := CrawlConfig{
		Documents: 300, VIPRatio: 0.1, VocabSize: 500,
		DocTerms: 40, MutateProb: 0.3, VIPMutateProb: 0.5, Seed: 7,
	}
	c, err := NewCrawler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCrawlConfigValidation(t *testing.T) {
	if _, err := NewCrawler(CrawlConfig{}); err == nil {
		t.Fatal("zero config should fail")
	}
	bad := DefaultCrawlConfig()
	bad.MutateProb = 1.5
	if _, err := NewCrawler(bad); err == nil {
		t.Fatal("bad probability should fail")
	}
}

func TestFirstCrawlDownloadsEverything(t *testing.T) {
	c := testCrawler(t)
	got := c.Crawl()
	if len(got) != 300 {
		t.Fatalf("first crawl = %d docs, want all 300", len(got))
	}
	for _, d := range got {
		if d.Version != 1 {
			t.Fatalf("%s downloaded at round %d, want 1", d.URL, d.Version)
		}
	}
}

func TestIncrementalCrawl(t *testing.T) {
	c := testCrawler(t)
	c.Crawl()
	second := c.Crawl()
	// Mutation probability ~0.3 (0.5 for the VIP tenth): roughly a third
	// of the corpus should re-download.
	if len(second) < 50 || len(second) > 180 {
		t.Fatalf("second crawl = %d docs, want ~90-100", len(second))
	}
	for _, d := range second {
		if d.Version != 2 {
			t.Fatalf("downloaded doc has version %d, want 2", d.Version)
		}
	}
}

func TestVIPDocsChurnFaster(t *testing.T) {
	c := testCrawler(t)
	c.Crawl()
	vip, non := 0, 0
	vipSeen, nonSeen := 0, 0
	for _, d := range c.Corpus() {
		if d.VIP {
			vipSeen++
		} else {
			nonSeen++
		}
	}
	for r := 0; r < 20; r++ {
		for _, d := range c.Crawl() {
			if d.VIP {
				vip++
			} else {
				non++
			}
		}
	}
	vipRate := float64(vip) / float64(vipSeen)
	nonRate := float64(non) / float64(nonSeen)
	if vipRate <= nonRate {
		t.Fatalf("VIP churn %v <= non-VIP churn %v", vipRate, nonRate)
	}
}

func TestBuildForwardAndSummary(t *testing.T) {
	docs := []Document{
		{URL: "u1", Terms: []string{"alpha", "beta", "gamma", "delta"}},
		{URL: "u2", Terms: []string{"beta"}},
	}
	fwd := BuildForward(docs)
	if len(fwd) != 2 || fwd[0].URL != "u1" || len(fwd[0].Terms) != 4 {
		t.Fatalf("forward = %+v", fwd)
	}
	sum := BuildSummary(docs, 2)
	if sum[0].Abstract != "alpha beta" {
		t.Fatalf("abstract = %q", sum[0].Abstract)
	}
	if sum[1].Abstract != "beta" {
		t.Fatalf("short abstract = %q", sum[1].Abstract)
	}
}

func TestBuildInverted(t *testing.T) {
	fwd := []ForwardEntry{
		{URL: "u2", Terms: []string{"b", "a", "b"}}, // duplicate term in doc
		{URL: "u1", Terms: []string{"a"}},
	}
	inv := BuildInverted(fwd)
	if len(inv) != 2 {
		t.Fatalf("inverted = %+v", inv)
	}
	if inv[0].Term != "a" || inv[1].Term != "b" {
		t.Fatalf("terms not sorted: %+v", inv)
	}
	if !sort.StringsAreSorted(inv[0].URLs) || len(inv[0].URLs) != 2 {
		t.Fatalf("URL chain for 'a' = %v", inv[0].URLs)
	}
	if len(inv[1].URLs) != 1 || inv[1].URLs[0] != "u2" {
		t.Fatalf("URL chain for 'b' = %v (must be deduplicated)", inv[1].URLs)
	}
}

func TestURLListCodec(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	got := DecodeURLList(EncodeURLList(urls))
	if len(got) != 3 || got[0] != "http://a" || got[2] != "http://c" {
		t.Fatalf("round trip = %v", got)
	}
	if DecodeURLList(nil) != nil {
		t.Fatal("empty decode should be nil")
	}
}

func TestSearchIntersection(t *testing.T) {
	inv := map[string][]string{
		"go":    {"u1", "u2", "u3"},
		"fast":  {"u2", "u3"},
		"index": {"u3", "u4"},
	}
	sum := map[string]string{"u3": "all about u3"}
	lookup := func(t string) ([]string, bool) { u, ok := inv[t]; return u, ok }
	abstracts := func(u string) (string, bool) { a, ok := sum[u]; return a, ok }

	got := Search([]string{"go", "fast", "index"}, lookup, abstracts, 10)
	if len(got) != 1 || got[0].URL != "u3" || got[0].Abstract != "all about u3" {
		t.Fatalf("Search = %+v", got)
	}
	if got := Search([]string{"missing"}, lookup, abstracts, 10); got != nil {
		t.Fatalf("missing term should yield nil, got %v", got)
	}
	if got := Search(nil, lookup, abstracts, 10); got != nil {
		t.Fatal("empty query should yield nil")
	}
	// Limit applies.
	got = Search([]string{"go"}, lookup, abstracts, 2)
	if len(got) != 2 {
		t.Fatalf("limited Search = %d results", len(got))
	}
}

func TestEndToEndIndexPipeline(t *testing.T) {
	// Crawl -> build all three indices -> serve a query.
	c := testCrawler(t)
	docs := c.Crawl()
	fwd := BuildForward(docs)
	inv := BuildInverted(fwd)
	sum := BuildSummary(docs, 5)

	invMap := map[string][]string{}
	for _, e := range inv {
		invMap[e.Term] = e.URLs
	}
	sumMap := map[string]string{}
	for _, e := range sum {
		sumMap[e.URL] = e.Abstract
	}
	// Query the most common term of the first document.
	term := docs[0].Terms[0]
	res := Search([]string{term},
		func(t string) ([]string, bool) { u, ok := invMap[t]; return u, ok },
		func(u string) (string, bool) { a, ok := sumMap[u]; return a, ok },
		5)
	if len(res) == 0 {
		t.Fatalf("no results for term %q", term)
	}
	found := false
	for _, r := range res {
		if r.URL == docs[0].URL {
			found = true
		}
		if r.Abstract == "" {
			t.Fatalf("missing abstract for %s", r.URL)
		}
	}
	// The first document may rank below the limit; at minimum, every hit
	// must actually contain the term.
	for _, r := range res {
		hit := false
		for _, d := range docs {
			if d.URL == r.URL {
				hit = strings.Contains(strings.Join(d.Terms, " "), term)
			}
		}
		if !hit {
			t.Fatalf("result %s does not contain %q", r.URL, term)
		}
	}
	_ = found
}
