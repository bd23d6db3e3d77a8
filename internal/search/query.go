package search

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// QueryClass selects the execution strategy.
type QueryClass string

// Query classes.
const (
	ClassTerm   QueryClass = "term"   // single-term lookup
	ClassAnd    QueryClass = "and"    // conjunctive intersection, block-skip early exit
	ClassPhrase QueryClass = "phrase" // consecutive positions
)

// ParseQueryClass validates a query-class name ("" defaults to and).
func ParseQueryClass(s string) (QueryClass, error) {
	switch QueryClass(s) {
	case "":
		return ClassAnd, nil
	case ClassTerm, ClassAnd, ClassPhrase:
		return QueryClass(s), nil
	}
	return "", fmt.Errorf("%w: %q (want term, and or phrase)", ErrUnknownClass, s)
}

// Result is one query hit, in doc-ID order.
type Result struct {
	DocID    uint32 `json:"doc_id"`
	URL      string `json:"url"`
	Abstract string `json:"abstract,omitempty"`
	// TF is the summed term frequency across the query terms — the
	// stand-in ranking signal.
	TF int `json:"tf"`
}

// QueryStats reports the work one query did.
type QueryStats struct {
	BlocksScanned int `json:"blocks_scanned"`
	BlocksSkipped int `json:"blocks_skipped"`
}

// Snapshot is a query view pinned to one sealed index version: it holds
// the fully decoded segment, so concurrent publishes of later versions
// cannot change its results. Safe for concurrent queries.
type Snapshot struct {
	Name    string
	Version uint64
	Seg     *Segment

	met *searchMetrics // nil: uninstrumented
}

// NewSnapshot pins a decoded segment as a query view (used by callers
// that load segments themselves, e.g. the fleet-routed client path).
func NewSnapshot(name string, version uint64, seg *Segment) *Snapshot {
	return &Snapshot{Name: name, Version: version, Seg: seg}
}

// Query executes one query of the given class against the pinned
// version, recording per-class latency and postings-block counters.
// limit <= 0 returns every hit.
func (sn *Snapshot) Query(ctx context.Context, class QueryClass, terms []string, limit int) (res []Result, stats QueryStats, err error) {
	start := time.Now()
	switch class {
	case ClassTerm:
		if len(terms) != 1 {
			err = fmt.Errorf("%w: term query wants exactly one term, got %d", ErrEmptyQuery, len(terms))
		} else {
			res, stats = sn.Seg.QueryTerm(terms[0], limit)
		}
	case ClassAnd:
		res, stats, err = sn.Seg.QueryAnd(terms, limit)
	case ClassPhrase:
		res, stats, err = sn.Seg.QueryPhrase(terms, limit)
	default:
		err = fmt.Errorf("%w: %q", ErrUnknownClass, class)
	}

	if err != nil {
		sn.met.recordError()
		return nil, stats, err
	}
	sn.met.recordQuery(class, float64(time.Since(start).Microseconds()), stats)
	return res, stats, nil
}

// QueryTerm returns every document containing term, in doc-ID order.
func (s *Segment) QueryTerm(term string, limit int) ([]Result, QueryStats) {
	var st IterStats
	var out []Result
	it, ok := s.Postings(term, &st)
	if ok {
		for it.Next() {
			out = append(out, s.result(it.DocID(), it.TF()))
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out, QueryStats{BlocksScanned: st.BlocksScanned, BlocksSkipped: st.BlocksSkipped}
}

// QueryAnd intersects the terms' postings with a leapfrog join: the
// iterators are ordered rarest-first and each candidate doc ID is
// Advance()d through the rest, so whole blocks of the common terms are
// skipped off their skip entries without being decoded.
func (s *Segment) QueryAnd(terms []string, limit int) ([]Result, QueryStats, error) {
	terms = dedupTerms(terms)
	if len(terms) == 0 {
		return nil, QueryStats{}, ErrEmptyQuery
	}
	var st IterStats
	its := make([]*Postings, 0, len(terms))
	for _, t := range terms {
		it, ok := s.Postings(t, &st)
		if !ok {
			// A missing term empties the conjunction before any I/O.
			return nil, QueryStats{}, nil
		}
		its = append(its, it)
	}
	sort.Slice(its, func(i, j int) bool { return its[i].DocFreq() < its[j].DocFreq() })
	var out []Result
	if !its[0].Next() {
		return nil, stats(st), nil
	}
	cand := its[0].DocID()
align:
	for {
		for _, it := range its {
			if !it.Advance(cand) {
				break align
			}
			if d := it.DocID(); d > cand {
				cand = d
				continue align
			}
		}
		tf := 0
		for _, it := range its {
			tf += it.TF()
		}
		out = append(out, s.result(cand, tf))
		if limit > 0 && len(out) >= limit {
			break
		}
		cand++
	}
	return out, stats(st), nil
}

// QueryPhrase returns documents containing the terms consecutively and
// in order, using the postings' position lists. Fails on segments
// without positions (CIFF imports).
func (s *Segment) QueryPhrase(terms []string, limit int) ([]Result, QueryStats, error) {
	if len(terms) == 0 {
		return nil, QueryStats{}, ErrEmptyQuery
	}
	if !s.hasPositions {
		return nil, QueryStats{}, ErrNoPositions
	}
	var st IterStats
	its := make([]*Postings, len(terms))
	for i, t := range terms {
		it, ok := s.Postings(t, &st)
		if !ok {
			return nil, QueryStats{}, nil
		}
		its[i] = it
	}
	var out []Result
	var cur, next, posBuf []uint32
	if !its[0].Next() {
		return nil, stats(st), nil
	}
	cand := its[0].DocID()
align:
	for {
		for _, it := range its {
			if !it.Advance(cand) {
				break align
			}
			if d := it.DocID(); d > cand {
				cand = d
				continue align
			}
		}
		// All terms present in cand: check adjacency. cur holds the
		// start positions of phrase prefixes matched so far.
		cur = its[0].Positions(cur[:0])
		for k := 1; k < len(its) && len(cur) > 0; k++ {
			posBuf = its[k].Positions(posBuf[:0])
			next = next[:0]
			i, j := 0, 0
			for i < len(cur) && j < len(posBuf) {
				want := cur[i] + uint32(k)
				switch {
				case posBuf[j] == want:
					next = append(next, cur[i])
					i++
					j++
				case posBuf[j] < want:
					j++
				default:
					i++
				}
			}
			cur, next = next, cur
		}
		if len(cur) > 0 {
			out = append(out, s.result(cand, len(cur)))
			if limit > 0 && len(out) >= limit {
				break
			}
		}
		cand++
	}
	return out, stats(st), nil
}

func stats(st IterStats) QueryStats {
	return QueryStats{BlocksScanned: st.BlocksScanned, BlocksSkipped: st.BlocksSkipped}
}

func (s *Segment) result(docID uint32, tf int) Result {
	d := s.docs[docID]
	return Result{DocID: docID, URL: d.URL, Abstract: d.Abstract, TF: tf}
}

// dedupTerms drops repeated terms, preserving first-seen order.
func dedupTerms(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	out := terms[:0:0]
	for _, t := range terms {
		if t == "" || seen[t] {
			continue
		}
		seen[t] = true
		out = append(out, t)
	}
	return out
}
