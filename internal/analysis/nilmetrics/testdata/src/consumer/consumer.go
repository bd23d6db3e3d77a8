// Package consumer is a fixture exercising the consumer-side rules:
// guarded types held by value (rule 2) and redundant nil guards around
// nil-safe method calls (rule 3).
package consumer

import "metrics"

type Server struct {
	reg  *metrics.Registry // pointers are the contract
	ops  metrics.Counter   // want `metrics.Counter held by value`
	tags []*metrics.Counter
}

var Global metrics.Counter // want `metrics.Counter held by value`

var GlobalPtr *metrics.Counter

func New(reg *metrics.Registry) *Server {
	return &Server{reg: reg}
}

func Record(c metrics.Counter) { // want `metrics.Counter held by value`
	_ = c
}

func Make() (out metrics.Registry) { // want `metrics.Registry held by value`
	return
}

func (s *Server) Handle() {
	if s.reg != nil { // want `redundant nil guard: methods on s.reg are nil-safe by contract`
		s.reg.Counter("ops").Inc()
	}
	// The contract makes the unconditional call safe.
	s.reg.Counter("ops").Inc()
}

func (s *Server) HandleMixed(n int) int {
	// Not redundant: the body does more than call nil-safe methods.
	if s.reg != nil {
		n++
		s.reg.Counter("ops").Inc()
	}
	return n
}

func (s *Server) HandleElse() {
	// Not redundant: an else branch means the guard carries logic.
	if s.reg != nil {
		s.reg.Counter("ops").Inc()
	} else {
		Global.Inc()
	}
}

// The attribution table obeys the same two consumer rules.
type Telemetry struct {
	attrib *metrics.AttribTable // pointers are the contract
	spare  metrics.AttribTable  // want `metrics.AttribTable held by value`
}

var Table metrics.AttribTable // want `metrics.AttribTable held by value`

func (t *Telemetry) Snapshot() int64 {
	if t.attrib != nil { // want `redundant nil guard: methods on t.attrib are nil-safe by contract`
		t.attrib.SampleEvery()
	}
	// The contract makes the unconditional call safe.
	return t.attrib.SampleEvery()
}
