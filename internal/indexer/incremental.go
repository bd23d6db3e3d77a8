package indexer

import (
	"sort"
)

// InvertedIndex maintains <term, URLs> chains incrementally: when a
// crawl round re-downloads only the modified documents (paper §1.1.1),
// only the terms those documents gained or lost produce new index
// entries — which is what keeps the per-version delta small and the
// Bifrost dedup ratio high for the rest.
type InvertedIndex struct {
	chains  map[string]map[string]bool // term -> set of URLs
	docTerm map[string][]string        // url -> terms at last indexing
}

// NewInvertedIndex returns an empty incremental index.
func NewInvertedIndex() *InvertedIndex {
	return &InvertedIndex{
		chains:  make(map[string]map[string]bool),
		docTerm: make(map[string][]string),
	}
}

// Update applies one re-downloaded document and returns the terms whose
// URL chains changed (sorted). Calling it again with an unchanged
// document returns nothing.
func (ix *InvertedIndex) Update(doc Document) []string {
	oldTerms := termSet(ix.docTerm[doc.URL])
	newTerms := termSet(doc.Terms)
	dirty := map[string]bool{}
	for t := range newTerms {
		if !oldTerms[t] {
			if ix.chains[t] == nil {
				ix.chains[t] = make(map[string]bool)
			}
			ix.chains[t][doc.URL] = true
			dirty[t] = true
		}
	}
	for t := range oldTerms {
		if !newTerms[t] {
			delete(ix.chains[t], doc.URL)
			if len(ix.chains[t]) == 0 {
				delete(ix.chains, t)
			}
			dirty[t] = true
		}
	}
	terms := make([]string, 0, len(newTerms))
	for t := range newTerms {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	ix.docTerm[doc.URL] = terms

	out := make([]string, 0, len(dirty))
	for t := range dirty {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// URLs returns the sorted URL chain of a term.
func (ix *InvertedIndex) URLs(term string) ([]string, bool) {
	set, ok := ix.chains[term]
	if !ok {
		return nil, false
	}
	urls := make([]string, 0, len(set))
	for u := range set {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	return urls, true
}

// Terms returns all indexed terms, sorted.
func (ix *InvertedIndex) Terms() []string {
	terms := make([]string, 0, len(ix.chains))
	for t := range ix.chains {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}

// Len returns the number of indexed terms.
func (ix *InvertedIndex) Len() int { return len(ix.chains) }

// Entries materializes the full index as sorted InvertedEntry values
// (for bulk loads and for comparing against the batch builder).
func (ix *InvertedIndex) Entries() []InvertedEntry {
	out := make([]InvertedEntry, 0, len(ix.chains))
	for _, t := range ix.Terms() {
		urls, _ := ix.URLs(t)
		out = append(out, InvertedEntry{Term: t, URLs: urls})
	}
	return out
}

func termSet(terms []string) map[string]bool {
	s := make(map[string]bool, len(terms))
	for _, t := range terms {
		s[t] = true
	}
	return s
}
