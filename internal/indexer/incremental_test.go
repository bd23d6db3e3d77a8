package indexer

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIncrementalBasic(t *testing.T) {
	ix := NewInvertedIndex()
	dirty := ix.Update(Document{URL: "u1", Terms: []string{"a", "b"}})
	if !reflect.DeepEqual(dirty, []string{"a", "b"}) {
		t.Fatalf("dirty = %v", dirty)
	}
	urls, ok := ix.URLs("a")
	if !ok || len(urls) != 1 || urls[0] != "u1" {
		t.Fatalf("URLs(a) = %v, %v", urls, ok)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestIncrementalUnchangedDocIsClean(t *testing.T) {
	ix := NewInvertedIndex()
	doc := Document{URL: "u1", Terms: []string{"x", "y", "x"}}
	ix.Update(doc)
	if dirty := ix.Update(doc); len(dirty) != 0 {
		t.Fatalf("re-indexing unchanged doc dirtied %v", dirty)
	}
}

func TestIncrementalTermChange(t *testing.T) {
	ix := NewInvertedIndex()
	ix.Update(Document{URL: "u1", Terms: []string{"old", "keep"}})
	dirty := ix.Update(Document{URL: "u1", Terms: []string{"new", "keep"}})
	if !reflect.DeepEqual(dirty, []string{"new", "old"}) {
		t.Fatalf("dirty = %v, want [new old]", dirty)
	}
	if _, ok := ix.URLs("old"); ok {
		t.Fatal("term 'old' should have an empty chain and be dropped")
	}
	if urls, _ := ix.URLs("keep"); len(urls) != 1 {
		t.Fatal("unchanged term disturbed")
	}
}

// TestIncrementalMatchesBatch: after any crawl history, the incremental
// index equals a batch rebuild over the final corpus.
func TestIncrementalMatchesBatch(t *testing.T) {
	c := testCrawler(t)
	ix := NewInvertedIndex()
	for round := 0; round < 5; round++ {
		for _, doc := range c.Crawl() {
			ix.Update(doc)
		}
	}
	batch := BuildInverted(BuildForward(c.Corpus()))
	inc := ix.Entries()
	if len(batch) != len(inc) {
		t.Fatalf("term counts differ: batch %d vs incremental %d", len(batch), len(inc))
	}
	for i := range batch {
		if batch[i].Term != inc[i].Term || !reflect.DeepEqual(batch[i].URLs, inc[i].URLs) {
			t.Fatalf("divergence at %q", batch[i].Term)
		}
	}
}

// TestIncrementalDeltaSmall: one modified document dirties only its own
// gained/lost terms, not the whole index — this is what keeps version
// deltas (and hence the dedup ratio) favourable.
func TestIncrementalDeltaSmall(t *testing.T) {
	ix := NewInvertedIndex()
	for i := 0; i < 200; i++ {
		ix.Update(Document{URL: fmt.Sprintf("u%03d", i), Terms: []string{
			fmt.Sprintf("t%03d", i), fmt.Sprintf("t%03d", (i+1)%200), "common",
		}})
	}
	total := ix.Len()
	dirty := ix.Update(Document{URL: "u000", Terms: []string{"t000", "brand-new", "common"}})
	if len(dirty) >= total/10 {
		t.Fatalf("one doc dirtied %d of %d terms", len(dirty), total)
	}
}

// Property: incremental updates over random document histories always
// agree with a batch rebuild.
func TestQuickIncrementalEquivalence(t *testing.T) {
	f := func(history [][]uint8) bool {
		ix := NewInvertedIndex()
		latest := map[string][]string{}
		for round, docs := range history {
			for d, termByte := range docs {
				url := fmt.Sprintf("u%d", d%5)
				terms := []string{
					fmt.Sprintf("t%d", termByte%7),
					fmt.Sprintf("t%d", (int(termByte)+round)%7),
				}
				ix.Update(Document{URL: url, Terms: terms})
				latest[url] = terms
			}
		}
		var fwd []ForwardEntry
		for url, terms := range latest {
			fwd = append(fwd, ForwardEntry{URL: url, Terms: terms})
		}
		batch := BuildInverted(fwd)
		inc := ix.Entries()
		if len(batch) != len(inc) {
			return false
		}
		for i := range batch {
			if batch[i].Term != inc[i].Term || !reflect.DeepEqual(batch[i].URLs, inc[i].URLs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
