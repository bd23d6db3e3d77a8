package search

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"directload/internal/metrics"
)

// IndexInfo describes one index's latest published state.
type IndexInfo struct {
	Name         string `json:"name"`
	Version      uint64 `json:"version"` // latest published; 0 = created, nothing published
	Docs         int    `json:"docs"`
	Terms        int    `json:"terms"`
	Bytes        int    `json:"bytes"`
	HasPositions bool   `json:"has_positions"`
}

// maxCachedSnapshots bounds the decoded-segment cache; pinned readers
// past the bound simply reload from the engine.
const maxCachedSnapshots = 32

// indexState is the in-memory lifecycle record for one index. The
// engine holds the durable truth (chunks + meta per version); the
// service tracks which versions it has published this process.
type indexState struct {
	latest uint64 // highest sealed version
	next   uint64 // highest version ever allocated (>= latest)
	info   IndexInfo
}

// Service owns the index lifecycle on one node: create, ingest (build
// and publish a new version), query through snapshots pinned to sealed
// versions, and CIFF import/export. Engine I/O never runs under the
// service lock, so slow publishes cannot stall concurrent queries.
type Service struct {
	eng Engine
	met *searchMetrics

	mu    sync.Mutex
	idx   map[string]*indexState
	snaps map[string]*Snapshot // "name@version" -> pinned snapshot
}

// NewService builds a Service over a versioned engine. reg may be nil.
func NewService(eng Engine, reg *metrics.Registry) *Service {
	return &Service{
		eng:   eng,
		met:   newSearchMetrics(reg),
		idx:   make(map[string]*indexState),
		snaps: make(map[string]*Snapshot),
	}
}

// ValidateIndexName rejects names that would break the engine key
// layout ("!idx/<name>/...") or the REST paths.
func ValidateIndexName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("search: index name must be 1..128 chars")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("search: index name %q: only [a-zA-Z0-9._-] allowed", name)
		}
	}
	return nil
}

func snapKey(name string, version uint64) string {
	return fmt.Sprintf("%s@%d", name, version)
}

// Create registers an empty index.
func (s *Service) Create(name string) error {
	if err := ValidateIndexName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx[name]; ok {
		return fmt.Errorf("search: index %q already exists", name)
	}
	s.idx[name] = &indexState{info: IndexInfo{Name: name}}
	return nil
}

// List returns every known index, sorted by name.
func (s *Service) List() []IndexInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]IndexInfo, 0, len(s.idx))
	for _, st := range s.idx {
		out = append(out, st.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Latest returns the newest sealed version (0 when nothing published).
func (s *Service) Latest(name string) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.idx[name]
	if !ok {
		return 0, false
	}
	return st.latest, true
}

// Ingest builds a segment from documents and publishes it as the
// index's next version, creating the index on first use. The previous
// version's chunks are untouched, so snapshots pinned to it keep
// serving identical results.
func (s *Service) Ingest(name string, docs []DocInput) (IndexInfo, error) {
	seg, err := BuildSegment(docs)
	if err != nil {
		return IndexInfo{}, err
	}
	return s.Publish(name, seg)
}

// ImportSegment publishes a CIFF stream as the index's next version.
func (s *Service) ImportSegment(name string, ciff []byte) (IndexInfo, error) {
	seg, err := ImportCIFF(ciff)
	if err != nil {
		return IndexInfo{}, err
	}
	return s.Publish(name, seg)
}

// Publish writes a built segment to the engine at a freshly allocated
// version and seals it. Concurrent publishes to the same index get
// distinct versions; the highest sealed one becomes the default for
// unpinned queries.
func (s *Service) Publish(name string, seg *Segment) (IndexInfo, error) {
	if err := ValidateIndexName(name); err != nil {
		return IndexInfo{}, err
	}
	s.mu.Lock()
	st := s.idx[name]
	if st == nil {
		st = &indexState{info: IndexInfo{Name: name}}
		s.idx[name] = st
	}
	st.next++
	ver := st.next
	s.mu.Unlock()

	if err := WriteSegment(s.eng, name, ver, seg); err != nil {
		return IndexInfo{}, err
	}

	info := IndexInfo{
		Name: name, Version: ver,
		Docs: seg.DocCount(), Terms: seg.TermCount(),
		Bytes: len(seg.Bytes()), HasPositions: seg.HasPositions(),
	}
	sn := NewSnapshot(name, ver, seg)
	sn.met = s.met
	s.mu.Lock()
	if ver > st.latest {
		st.latest = ver
		st.info = info
	}
	s.cacheSnapLocked(sn)
	latest := st.latest
	s.mu.Unlock()
	s.met.publishes.Inc()
	s.met.snapVersion.Set(int64(latest))
	return info, nil
}

// Snapshot returns a query view pinned to version (0 = latest sealed).
// The decoded segment is cached, so repeated queries at the same
// version skip the engine entirely.
func (s *Service) Snapshot(name string, version uint64) (*Snapshot, error) {
	s.mu.Lock()
	st := s.idx[name]
	if st == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("search: unknown index %q", name)
	}
	if version == 0 {
		if st.latest == 0 {
			s.mu.Unlock()
			return nil, fmt.Errorf("search: index %q has no published version", name)
		}
		version = st.latest
	}
	if sn := s.snaps[snapKey(name, version)]; sn != nil {
		s.mu.Unlock()
		return sn, nil
	}
	s.mu.Unlock()

	seg, _, err := LoadSegment(s.eng, name, version)
	if err != nil {
		return nil, err
	}
	s.met.snapLoads.Inc()
	sn := NewSnapshot(name, version, seg)
	sn.met = s.met
	s.mu.Lock()
	s.cacheSnapLocked(sn)
	s.mu.Unlock()
	return sn, nil
}

// cacheSnapLocked stores a snapshot, evicting an arbitrary entry past
// the bound. Callers hold s.mu.
func (s *Service) cacheSnapLocked(sn *Snapshot) {
	if len(s.snaps) >= maxCachedSnapshots {
		for k := range s.snaps {
			delete(s.snaps, k)
			break
		}
	}
	s.snaps[snapKey(sn.Name, sn.Version)] = sn
}

// Query runs one query against the index at version (0 = latest),
// returning the version actually served so clients can pin it.
func (s *Service) Query(ctx context.Context, name string, version uint64, class QueryClass, terms []string, limit int) ([]Result, QueryStats, uint64, error) {
	sn, err := s.Snapshot(name, version)
	if err != nil {
		return nil, QueryStats{}, 0, err
	}
	res, stats, err := sn.Query(ctx, class, terms, limit)
	return res, stats, sn.Version, err
}

// ExportSegment serializes the index at version (0 = latest) as CIFF.
func (s *Service) ExportSegment(name string, version uint64) ([]byte, error) {
	sn, err := s.Snapshot(name, version)
	if err != nil {
		return nil, err
	}
	return ExportCIFF(sn.Seg), nil
}

// ParseQuery splits a query string into terms (whitespace separated).
func ParseQuery(q string) []string {
	return strings.Fields(q)
}
