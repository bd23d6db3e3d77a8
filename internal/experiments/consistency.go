package experiments

import (
	"math/rand"

	"directload/internal/bifrost"
	"directload/internal/cluster"
	"directload/internal/indexer"
	"directload/internal/netsim"
)

// The gray-release consistency experiment (paper §3): while one data
// center serves a newer index version, "a user may access the different
// versions of inverted index and summary index"; the paper measures the
// search-result inconsistency at under 0.1% and notes it "rarely
// confuses users because of the highly overlapped content between
// consecutive versions". Here the full pipeline runs — crawl, incremental
// index build, dedup, ship, store — and real multi-term queries are
// answered from every data center; a query counts as inconsistent when
// any DC returns a different result set than the majority.

// ConsistencyConfig shapes the gray-release search experiment.
type ConsistencyConfig struct {
	Documents int
	Queries   int
	TopK      int
	// MutateProb is the per-document probability of changing between
	// the two versions. The paper ships a version roughly hourly, so the
	// per-version churn behind its <0.1% figure is very small; the
	// default models that hourly delta.
	MutateProb float64
	Seed       int64
}

// DefaultConsistencyConfig returns the laptop-scale run at hourly churn.
func DefaultConsistencyConfig() ConsistencyConfig {
	return ConsistencyConfig{Documents: 600, Queries: 400, TopK: 5, MutateProb: 0.01, Seed: 1}
}

// ConsistencyResult reports the measured inconsistency.
type ConsistencyResult struct {
	MutateProb         float64
	Queries            int
	InconsistentDuring int     // gray release active on one DC
	InconsistentAfter  int     // after activating everywhere
	RateDuring         float64 // paper: < 0.1% at production scale
	RateAfter          float64 // must be exactly 0
	ChangedDocs        int     // documents that changed between versions
}

// RunGrayConsistency publishes two index versions built from a mutating
// corpus, gray-releases v2 on one data center, and measures search-result
// agreement across all six.
func RunGrayConsistency(cfg ConsistencyConfig) (ConsistencyResult, error) {
	if cfg.Documents == 0 {
		cfg = DefaultConsistencyConfig()
	}
	res := ConsistencyResult{Queries: cfg.Queries, MutateProb: cfg.MutateProb}

	sysCfg := monthSystemConfig(MonthConfig{
		WithDirectLoad: true,
		LinkBandwidth:  10e6,
		Seed:           cfg.Seed,
	})
	sysCfg.CorruptProb = 0
	sys, err := cluster.New(sysCfg)
	if err != nil {
		return res, err
	}
	defer sys.Close()

	if cfg.MutateProb == 0 {
		cfg.MutateProb = 0.01
	}
	crawler, err := indexer.NewCrawler(indexer.CrawlConfig{
		Documents: cfg.Documents, VIPRatio: 0.1, VocabSize: cfg.Documents * 4,
		DocTerms: 50, MutateProb: cfg.MutateProb, VIPMutateProb: cfg.MutateProb, Seed: cfg.Seed,
	})
	if err != nil {
		return res, err
	}

	ix := indexer.NewInvertedIndex()
	publish := func(version uint64) error {
		docs := crawler.Crawl()
		if version > 1 {
			res.ChangedDocs = len(docs)
		}
		for _, d := range docs {
			ix.Update(d)
		}
		var entries []cluster.Entry
		// All terms are published each version (the deduper strips the
		// unchanged ones); summaries likewise.
		for _, e := range ix.Entries() {
			entries = append(entries, cluster.Entry{
				Key:    []byte("inv/" + e.Term),
				Value:  indexer.EncodeURLList(e.URLs),
				Stream: bifrost.StreamInverted,
			})
		}
		for _, s := range indexer.BuildSummary(crawler.Corpus(), 6) {
			entries = append(entries, cluster.Entry{
				Key:    []byte("sum/" + s.URL),
				Value:  []byte(s.Abstract),
				Stream: bifrost.StreamInverted, // keep abstracts everywhere for the audit
			})
		}
		if _, err := sys.PublishVersion(version, entries); err != nil {
			return err
		}
		return nil
	}

	if err := publish(1); err != nil {
		return res, err
	}
	if err := sys.ActivateEverywhere(1); err != nil {
		return res, err
	}
	if err := publish(2); err != nil {
		return res, err
	}
	grayDC := sys.Top.Regions[0].DCs[0]
	if err := sys.GrayRelease(2, grayDC); err != nil {
		return res, err
	}

	// Query workload: two-term conjunctions drawn from real documents.
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	corpus := crawler.Corpus()
	queryTerms := func() []string {
		d := corpus[rng.Intn(len(corpus))]
		if len(d.Terms) < 2 {
			return []string{d.Terms[0]}
		}
		a := rng.Intn(len(d.Terms))
		b := rng.Intn(len(d.Terms))
		return []string{d.Terms[a], d.Terms[b]}
	}
	searchAt := func(dc netsim.NodeID, terms []string) string {
		results := indexer.Search(terms,
			func(term string) ([]string, bool) {
				v, err := sys.Get(dc, []byte("inv/"+term))
				if err != nil {
					return nil, false
				}
				return indexer.DecodeURLList(v), true
			},
			func(url string) (string, bool) {
				v, err := sys.Get(dc, []byte("sum/"+url))
				if err != nil {
					return "", false
				}
				return string(v), true
			},
			cfg.TopK)
		sig := ""
		for _, r := range results {
			sig += r.URL + "\x00" + r.Abstract + "\x01"
		}
		return sig
	}
	dcs := sys.Top.AllDCs()
	countDisagreements := func() int {
		bad := 0
		for q := 0; q < cfg.Queries; q++ {
			terms := queryTerms()
			sigs := map[string]int{}
			for _, dc := range dcs {
				sigs[searchAt(dc, terms)]++
			}
			if len(sigs) > 1 {
				bad++
			}
		}
		return bad
	}

	res.InconsistentDuring = countDisagreements()
	res.RateDuring = float64(res.InconsistentDuring) / float64(cfg.Queries)

	if err := sys.ActivateEverywhere(2); err != nil {
		return res, err
	}
	res.InconsistentAfter = countDisagreements()
	res.RateAfter = float64(res.InconsistentAfter) / float64(cfg.Queries)
	return res, nil
}

// ConsistencySweep measures the gray-release inconsistency as a function
// of per-version content churn: the strict query-level rate is bounded by
// the probability that a query touches a changed document.
func ConsistencySweep(base ConsistencyConfig, churns []float64) ([]ConsistencyResult, error) {
	if len(churns) == 0 {
		churns = []float64{0.01, 0.05, 0.15, 0.30}
	}
	var out []ConsistencyResult
	for _, m := range churns {
		cfg := base
		cfg.MutateProb = m
		r, err := RunGrayConsistency(cfg)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
