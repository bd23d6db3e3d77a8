// Package indexer reproduces the index building engine of paper §1.1.1:
// crawled documents become forward indices <URL, terms>, inverted indices
// <term, URLs> and summary indices <URL, abstract>. A crawl simulator
// substitutes for the web (DESIGN.md §2): a synthetic corpus whose
// documents mutate between rounds with configurable probability, split
// into VIP and non-VIP classes — VIP pages being the small, hot fraction
// that serves most queries.
package indexer

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Document is one crawled page.
type Document struct {
	URL     string
	Terms   []string // dismantled content, in document order
	VIP     bool
	Version uint64 // crawl round that last modified it
}

// Abstract returns the document summary stored in the summary index: the
// first n terms joined, which stands in for a contextual snippet.
func (d Document) Abstract(n int) string {
	if n > len(d.Terms) {
		n = len(d.Terms)
	}
	return strings.Join(d.Terms[:n], " ")
}

// CrawlConfig shapes the simulated web.
type CrawlConfig struct {
	Documents  int     // corpus size
	VIPRatio   float64 // fraction of VIP documents (small, hot set)
	VocabSize  int     // distinct terms
	DocTerms   int     // mean terms per document
	MutateProb float64 // per-round probability a document changed
	// VIPMutateProb overrides MutateProb for VIP documents (VIP data are
	// crawled and updated more frequently, paper §3).
	VIPMutateProb float64
	// Seed drives a per-crawler *rand.Rand (never the package-global
	// math/rand stream): the same seed replays the exact same corpus
	// and mutation history, and concurrent crawlers cannot interleave
	// each other's random streams.
	Seed int64
}

// DefaultCrawlConfig returns a small, paper-shaped corpus.
func DefaultCrawlConfig() CrawlConfig {
	return CrawlConfig{
		Documents:     2000,
		VIPRatio:      0.1,
		VocabSize:     5000,
		DocTerms:      80,
		MutateProb:    0.3, // ~70% unchanged between versions
		VIPMutateProb: 0.5,
		Seed:          1,
	}
}

// Crawler simulates round-based crawling: each round re-downloads only
// the documents modified since the previous round.
type Crawler struct {
	cfg   CrawlConfig
	rng   *rand.Rand
	docs  []Document
	round uint64
}

// NewCrawler seeds the corpus (round 0 content; nothing crawled yet).
func NewCrawler(cfg CrawlConfig) (*Crawler, error) {
	if cfg.Documents <= 0 || cfg.VocabSize <= 0 || cfg.DocTerms <= 0 {
		return nil, fmt.Errorf("indexer: bad crawl config %+v", cfg)
	}
	if cfg.MutateProb < 0 || cfg.MutateProb > 1 || cfg.VIPRatio < 0 || cfg.VIPRatio > 1 {
		return nil, fmt.Errorf("indexer: probabilities out of range in %+v", cfg)
	}
	c := &Crawler{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	c.docs = make([]Document, cfg.Documents)
	for i := range c.docs {
		c.docs[i] = Document{
			URL: fmt.Sprintf("http://site-%04d.example/page-%06d", i%512, i),
			VIP: c.rng.Float64() < cfg.VIPRatio,
		}
		c.regenerate(&c.docs[i])
	}
	return c, nil
}

// regenerate rewrites a document's content in place.
func (c *Crawler) regenerate(d *Document) {
	n := c.cfg.DocTerms/2 + c.rng.Intn(c.cfg.DocTerms)
	terms := make([]string, n)
	for i := range terms {
		// Zipf-ish term popularity: squaring skews toward low ids.
		t := int(float64(c.cfg.VocabSize) * c.rng.Float64() * c.rng.Float64())
		terms[i] = fmt.Sprintf("term%05d", t)
	}
	d.Terms = terms
	d.Version = c.round
}

// Crawl advances one round and returns the documents downloaded this
// round: every document whose content changed (plus all documents on the
// first round). This matches §1.1.1: "The web crawlers download a
// document ... only if it has been modified since last round".
func (c *Crawler) Crawl() []Document {
	c.round++
	var out []Document
	for i := range c.docs {
		d := &c.docs[i]
		if c.round == 1 {
			d.Version = c.round
			out = append(out, *d)
			continue
		}
		p := c.cfg.MutateProb
		if d.VIP && c.cfg.VIPMutateProb > 0 {
			p = c.cfg.VIPMutateProb
		}
		if c.rng.Float64() < p {
			c.regenerate(d)
			d.Version = c.round
			out = append(out, *d)
		}
	}
	return out
}

// Corpus returns the full current corpus (used to rebuild indices).
func (c *Crawler) Corpus() []Document {
	return append([]Document(nil), c.docs...)
}

// --- index building ---------------------------------------------------------

// ForwardEntry is one forward-index pair <URL, terms>.
type ForwardEntry struct {
	URL   string
	Terms []string
}

// SummaryEntry is one summary-index pair <URL, abstract>.
type SummaryEntry struct {
	URL      string
	Abstract string
}

// InvertedEntry is one inverted-index pair <term, URLs>.
type InvertedEntry struct {
	Term string
	URLs []string
}

// BuildForward generates forward-index entries from documents.
func BuildForward(docs []Document) []ForwardEntry {
	out := make([]ForwardEntry, len(docs))
	for i, d := range docs {
		out[i] = ForwardEntry{URL: d.URL, Terms: d.Terms}
	}
	return out
}

// BuildSummary generates summary-index entries: the key is the URL, the
// value a document abstract (paper: <URL, abstract>).
func BuildSummary(docs []Document, abstractTerms int) []SummaryEntry {
	out := make([]SummaryEntry, len(docs))
	for i, d := range docs {
		out[i] = SummaryEntry{URL: d.URL, Abstract: d.Abstract(abstractTerms)}
	}
	return out
}

// BuildInverted inverts forward entries into <term, URLs> with URLs
// sorted and deduplicated. Entries are returned in term order.
func BuildInverted(forward []ForwardEntry) []InvertedEntry {
	byTerm := make(map[string]map[string]bool)
	for _, f := range forward {
		for _, t := range f.Terms {
			if byTerm[t] == nil {
				byTerm[t] = make(map[string]bool)
			}
			byTerm[t][f.URL] = true
		}
	}
	terms := make([]string, 0, len(byTerm))
	for t := range byTerm {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	out := make([]InvertedEntry, len(terms))
	for i, t := range terms {
		urls := make([]string, 0, len(byTerm[t]))
		for u := range byTerm[t] {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		out[i] = InvertedEntry{Term: t, URLs: urls}
	}
	return out
}

// EncodeURLList serializes an inverted entry's URL chain as the value
// payload stored in the KV system.
func EncodeURLList(urls []string) []byte {
	return []byte(strings.Join(urls, "\n"))
}

// DecodeURLList parses EncodeURLList output.
func DecodeURLList(value []byte) []string {
	if len(value) == 0 {
		return nil
	}
	return strings.Split(string(value), "\n")
}

// Search resolves a multi-term query against an inverted index lookup
// function, intersecting the URL chains, then fetches abstracts through
// the summary lookup — the read path of Figure 1. Terms missing from the
// index yield an empty result.
func Search(terms []string,
	inverted func(term string) ([]string, bool),
	summary func(url string) (string, bool),
	limit int) []SearchResult {
	if len(terms) == 0 {
		return nil
	}
	var candidate map[string]bool
	for _, t := range terms {
		urls, ok := inverted(t)
		if !ok {
			return nil
		}
		next := make(map[string]bool)
		for _, u := range urls {
			if candidate == nil || candidate[u] {
				next[u] = true
			}
		}
		candidate = next
		if len(candidate) == 0 {
			return nil
		}
	}
	hits := make([]string, 0, len(candidate))
	for u := range candidate {
		hits = append(hits, u)
	}
	sort.Strings(hits) // deterministic "ranking"
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	out := make([]SearchResult, 0, len(hits))
	for _, u := range hits {
		r := SearchResult{URL: u}
		if abs, ok := summary(u); ok {
			r.Abstract = abs
		}
		out = append(out, r)
	}
	return out
}

// SearchResult is one ranked hit with its abstract.
type SearchResult struct {
	URL      string
	Abstract string
}
