package metrics

// SLOConfig shapes one service-level objective.
type SLOConfig struct {
	// Name labels the objective ("node.read").
	Name string
	// Target is the tolerated bad-event ratio: the paper's read-miss
	// SLO of 0.6 % is 0.006.
	Target float64
}

// SLO counts one service-level objective's good and bad events over the
// process lifetime. The objective holds while bad/(good+bad) stays at or
// under Target; a scraper computes that ratio over any window it likes as
// rate(bad)/rate(good+bad), and adds the counters across nodes for the
// fleet's. All methods are safe for concurrent use and no-ops on a nil
// receiver.
type SLO struct {
	name   string
	target float64
	good   Counter
	bad    Counter
}

// NewSLO builds an objective for cfg ("slo" when Name is empty).
func NewSLO(cfg SLOConfig) *SLO {
	if cfg.Name == "" {
		cfg.Name = "slo"
	}
	return &SLO{name: cfg.Name, target: cfg.Target}
}

// Record counts one event: good=true for an event within the objective
// (a read hit), false for a violation. One atomic add.
func (s *SLO) Record(good bool) {
	if s == nil {
		return
	}
	if good {
		s.good.Inc()
	} else {
		s.bad.Inc()
	}
}

// Register exposes the objective on a registry: slo.<name>.good and
// slo.<name>.bad as lifetime counters, slo.<name>.target as a gauge.
// Safe on a nil receiver or registry.
func (s *SLO) Register(reg *Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.setCounter("slo."+s.name+".good", &s.good)
	reg.setCounter("slo."+s.name+".bad", &s.bad)
	reg.GaugeFunc("slo."+s.name+".target", func() float64 { return s.target })
}
