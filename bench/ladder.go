package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"directload/internal/aof"
	"directload/internal/blockfs"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/resp"
	"directload/internal/server"
	"directload/internal/skiplist"
	"directload/internal/ssd"
)

// The ladder replays the first half of round one of the workload's seeded
// operation stream in this process, on one goroutine, once per entry point:
//
//	RESP or native v2 over loopback -> server.Backend -> core.DB -> aof.Store
//
// with blockfs timed inside every rung by a decorator round blockfs.FS,
// the one interface seam the layers have. A rung's self time is its time
// minus the next rung's. All spans are recorded from this package; the
// daemon's own code is untouched.
const ladderFraction = 2 // of a round: half its versions, or one of its two connections

type level int

const (
	levelAOF level = iota
	levelCore
	levelBackend
	levelV2
	levelRESP
)

var levelNames = [...]string{"aof", "core", "backend", "v2", "resp"}

// step is one request of the stream: what goes on the wire at the door
// rungs, and the same operations as calls for the rungs below.
type step struct {
	wire    [][]byte // door rungs: segments of one write
	replies int      // door rungs: replies that answer it
	batch   bool     // backend rung: ops travel as one Backend.Batch
	ops     []lop
}

// lop is one engine operation. Op is OpPut, OpPutDedup, OpGet or
// OpDropVersion; slot and baseSlot index the aof rung's table of record
// locations (version·keys + key).
type lop struct {
	server.BatchOp
	slot, baseSlot int
	base           uint64
}

// stream is the preload (untimed) and the measured steps of one workload.
type stream struct {
	door    level
	preload []step
	steps   []step
	ops     int // puts + gets in steps: the divisor of every per-op figure
	slots   int
}

// --- spans ------------------------------------------------------------------------

type spanName uint8

const (
	spPut spanName = iota
	spPutDedup
	spGet
	spGetDedup
	spDrop
	spRequest
	spFSAppend
	spFSReadAt
	spFSOther
	spanNames
)

var spanLabels = [spanNames]string{"put", "put_dedup", "get", "get_dedup", "drop", "request",
	"blockfs.append", "blockfs.readat", "blockfs.other"}

// span is one timed call. parent is the index of the request span that
// caused it (-1 for a request), op the step it belongs to.
type span struct {
	name       spanName
	op, parent int32
	start, end int64 // ns since the rung began
}

// tracer keeps one rung's spans in memory. The loopback rungs reach the
// decorator from server goroutines, hence the mutex; requests are issued
// one at a time, so "the current request" is well defined.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cur   int32
	curOp int32
}

// newTracer sizes the span buffer ahead, so that growing it does not show
// up in a rung's allocation figures.
func newTracer(spans int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, spans), cur: -1}
}

// begin opens a request span and makes it the parent of what follows.
func (t *tracer) begin(name spanName, op int) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: int32(op), parent: -1, start: int64(time.Since(t.t0))})
	t.cur, t.curOp = int32(len(t.spans)-1), int32(op)
	return t.cur
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].end = int64(time.Since(t.t0))
	t.cur = -1
	t.mu.Unlock()
}

// child records a finished call made on behalf of the current request.
func (t *tracer) child(name spanName, start time.Time) {
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: t.curOp, parent: t.cur,
		start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// totals sums span durations and counts by name.
func (t *tracer) totals() (dur [spanNames]time.Duration, n [spanNames]int) {
	if t == nil {
		return
	}
	for _, s := range t.spans {
		dur[s.name] += time.Duration(s.end - s.start)
		n[s.name]++
	}
	return
}

// tracedFS times every call into blockfs.
type tracedFS struct {
	blockfs.FS
	t *tracer
}

func (f tracedFS) Create(name string) (blockfs.Writer, error) {
	start := time.Now()
	w, err := f.FS.Create(name)
	f.t.child(spFSOther, start)
	if err != nil {
		return nil, err
	}
	return tracedWriter{w, f.t}, nil
}

func (f tracedFS) Open(name string) (blockfs.Reader, error) {
	r, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return tracedReader{r, f.t}, nil
}

func (f tracedFS) Remove(name string) (time.Duration, error) {
	start := time.Now()
	defer f.t.child(spFSOther, start)
	return f.FS.Remove(name)
}

type tracedWriter struct {
	blockfs.Writer
	t *tracer
}

func (w tracedWriter) Append(p []byte) (int64, time.Duration, error) {
	start := time.Now()
	defer w.t.child(spFSAppend, start)
	return w.Writer.Append(p)
}

func (w tracedWriter) Close() (time.Duration, error) {
	start := time.Now()
	defer w.t.child(spFSOther, start)
	return w.Writer.Close()
}

type tracedReader struct {
	blockfs.Reader
	t *tracer
}

func (r tracedReader) ReadAt(p []byte, off int64) (int, time.Duration, error) {
	start := time.Now()
	defer r.t.child(spFSReadAt, start)
	return r.Reader.ReadAt(p, off)
}

// --- building the stream -------------------------------------------------------------

// kvStream builds the preload (versions 1-4) and the measured steps of a
// 20 KB workload from the live run's plan for round one, half as long.
func kvStream(l *live, name string) *stream {
	d := l.ds
	s := &stream{door: levelV2}
	keys := len(d.keys)
	slot := func(v, k int) int { return v*keys + k }
	batch := func(v, lo, hi int) step {
		p := d.plan(v)
		st := step{wire: encodeBatch(d, v, lo, hi, 0).segs, replies: 1, batch: true}
		for k := lo; k < hi; k++ {
			op := lop{BatchOp: server.BatchOp{Op: server.OpPut, Version: uint64(v), Key: d.keys[k]}, slot: slot(v, k)}
			if p.dup(k, v) {
				op.Op, op.base, op.baseSlot = server.OpPutDedup, uint64(p.base[k]), slot(int(p.base[k]), k)
			} else {
				op.Value = d.value(k, v)
			}
			st.ops = append(st.ops, op)
		}
		return st
	}
	version := func(dst []step, v int, between func(dst []step, i int) []step) []step {
		for lo, i := 0, 0; lo < keys; lo, i = lo+batchEntries, i+1 {
			dst = append(dst, batch(v, lo, min(lo+batchEntries, keys)))
			if between != nil {
				dst = between(dst, i)
			}
		}
		if v > keepVersions {
			drop := uint64(v - keepVersions)
			wire := binary.LittleEndian.AppendUint32(nil, 4+15)
			wire = binary.LittleEndian.AppendUint32(wire, 0)
			wire = appendReqHead(wire, server.OpDropVersion, drop, nil, 0)
			dst = append(dst, step{wire: [][]byte{wire}, replies: 1,
				ops: []lop{{BatchOp: server.BatchOp{Op: server.OpDropVersion, Version: drop}}}})
		}
		return dst
	}
	get := func(k, v int) step {
		base := int(d.plan(v).base[k])
		return step{wire: [][]byte{appendGet(nil, 0, d.keys[k], uint64(v))}, replies: 1,
			ops: []lop{{BatchOp: server.BatchOp{Op: server.OpGet, Version: uint64(v), Key: d.keys[k]},
				slot: slot(v, k), baseSlot: slot(base, k), base: uint64(base)}}}
	}
	for v := 1; v <= keepVersions; v++ {
		s.preload = version(s.preload, v, nil)
	}
	last := keepVersions
	switch name {
	case "publish":
		last += max(1, (l.lastV-l.firstV+1)/ladderFraction)
		for v := keepVersions + 1; v <= last; v++ {
			s.steps = version(s.steps, v, nil)
		}
	case "serve":
		for _, k := range l.getKeys[0] { // one of the round's two connections
			s.steps = append(s.steps, get(k, servePinned))
		}
	case "mixed":
		// GETs follow each batch in the ratio of the offered rates, at the
		// newest complete version.
		last += max(1, (l.lastV-l.firstV+1)/ladderFraction)
		reads := l.getKeys[0]
		for v, next := keepVersions+1, 0; v <= last; v++ {
			s.steps = version(s.steps, v, func(dst []step, i int) []step {
				for j := 0; j < batchEntries*mixedReadRate/mixedWriteRate && next < len(reads); j, next = j+1, next+1 {
					dst = append(dst, get(reads[next], v-1))
				}
				return dst
			})
		}
	}
	s.slots = (last + 1) * keys
	s.count()
	return s
}

// respSmallStream builds resp-small's stream: the keys and bursts of one
// of round one's two connections.
func respSmallStream(l *live) *stream {
	half := l.sz.respKeys / 2
	s := &stream{door: levelRESP, slots: half}
	put := func(k int, seq uint32) lop {
		return lop{BatchOp: server.BatchOp{Op: server.OpPut, Version: 1, Key: respKey(k), Value: l.ds.respValue(nil, k, seq)}, slot: k}
	}
	for lo := 0; lo < half; lo += 256 {
		st := step{replies: min(256, half-lo)}
		var wire []byte
		for k := lo; k < lo+st.replies; k++ {
			op := put(k, 0)
			wire = resp.AppendCommand(wire, cmdSET, op.Key, op.Value)
			st.ops = append(st.ops, op)
		}
		st.wire = [][]byte{wire}
		s.preload = append(s.preload, st)
	}
	rs := l.respPlan[0]
	begin := 0
	for b, end := range rs.ends {
		st := step{wire: [][]byte{rs.data[begin:end]}, replies: respBurst}
		begin = end
		for _, op := range rs.ops[b*respBurst : (b+1)*respBurst] {
			if op.set {
				st.ops = append(st.ops, put(int(op.key), op.seq))
			} else {
				k := int(op.key)
				st.ops = append(st.ops, lop{BatchOp: server.BatchOp{Op: server.OpGet, Version: 1, Key: respKey(k)}, slot: k, baseSlot: k})
			}
		}
		s.steps = append(s.steps, st)
	}
	s.count()
	return s
}

func (s *stream) count() {
	for _, st := range s.steps {
		for _, op := range st.ops {
			if op.Op != server.OpDropVersion {
				s.ops++
			}
		}
	}
}

// --- one rung -----------------------------------------------------------------------

// rungOpts says how a rung's stack is assembled.
type rungOpts struct {
	level    level
	traced   bool // decorator round blockfs and a span per request
	registry bool // metrics registry, slowlog, SLO and attribution as qindbd wires them
}

// stack is the layers under one entry point, built fresh for each rung
// with qindbd's shipped configuration.
type stack struct {
	opts    rungOpts
	dev     *ssd.Device
	fs      blockfs.FS
	tr      *tracer
	reg     *metrics.Registry
	store   *aof.Store
	db      *core.DB
	backend *server.Backend
	closers []func()
	v2      *v2conn
	rc      net.Conn
	rbr     *bufio.Reader
	refs    []aof.Ref // aof rung: where each (version, key) record lives
	step    int       // index of the step being executed, for its spans
	scratch []byte
	wbuf    net.Buffers
}

// shipped is qindbd's default configuration, copied here because cmd/qindbd
// keeps it in its flag declarations; TestShippedDefaults compares it with
// what `qindbd -h` prints, so the ladder cannot drift from the live run.
var shipped = struct {
	aofSize, checkpoint int64
	gc, sloReadTarget   float64
	slowlog             time.Duration
	attrSample          int
}{aofSize: 64 << 20, checkpoint: 256 << 20, gc: 0.25, sloReadTarget: 0.006, slowlog: 10 * time.Millisecond, attrSample: 64}

var aofConfig = aof.Config{FileSize: shipped.aofSize, GCThreshold: shipped.gc}

func (s *stack) coreOptions() core.Options {
	return core.Options{AOF: aofConfig, CheckpointEveryBytes: shipped.checkpoint, Seed: 1, Metrics: s.reg}
}

func newStack(o rungOpts, slots, spans int) (*stack, error) {
	dev, err := ssd.NewDevice(ssd.DefaultConfig(4 << 30))
	if err != nil {
		return nil, err
	}
	s := &stack{opts: o, dev: dev, fs: blockfs.NewNativeFS(dev)}
	if o.traced {
		s.tr = newTracer(spans)
		s.fs = tracedFS{s.fs, s.tr}
	}
	if o.registry {
		s.reg = metrics.NewRegistry()
	}
	if o.level == levelAOF {
		cfg := aofConfig
		cfg.Metrics = s.reg
		s.refs = make([]aof.Ref, slots)
		s.store, err = aof.Open(s.fs, cfg)
		return s, err
	}
	if s.db, err = core.Open(s.fs, s.coreOptions()); err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { s.db.Close() })
	if o.level == levelCore {
		return s, nil
	}
	srv := server.New(s.db)
	s.backend = srv.Backend()
	if o.registry {
		srv.SetMetrics(s.reg)
		srv.SetSlowLog(metrics.NewSlowLog(0, shipped.slowlog))
		slo := metrics.NewSLO(metrics.SLOConfig{Name: "node.read", Target: shipped.sloReadTarget})
		slo.Register(s.reg)
		srv.SetReadSLO(slo)
		srv.SetAttribution(shipped.attrSample)
	}
	if o.level == levelBackend {
		return s, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	if o.level == levelV2 {
		go srv.Serve(ln)
		s.closers = append(s.closers, func() { srv.Close() })
		if s.v2, err = dialV2(ln.Addr().String()); err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, s.v2.close)
		return s, nil
	}
	rsrv := resp.New(s.backend)
	go rsrv.Serve(ln)
	s.closers = append(s.closers, func() { rsrv.Close() })
	if s.rc, err = net.DialTimeout("tcp", ln.Addr().String(), ioTimeout); err != nil {
		s.close()
		return nil, err
	}
	s.rbr = bufio.NewReaderSize(s.rc, 16<<10)
	s.closers = append(s.closers, func() { s.rc.Close() })
	return s, nil
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// do executes one step at the stack's entry point.
func (s *stack) do(st *step) error {
	switch s.opts.level {
	case levelV2:
		if err := s.v2.sendv(st.wire, &s.wbuf); err != nil {
			return err
		}
		_, status, payload, err := s.v2.recv()
		if err == nil && status != server.StatusOK {
			err = fmt.Errorf("status %d: %s", status, payload)
		}
		return err
	case levelRESP:
		s.rc.SetDeadline(time.Now().Add(ioTimeout))
		if _, err := s.rc.Write(st.wire[0]); err != nil {
			return err
		}
		for i := 0; i < st.replies; i++ {
			kind, data, err := readRESP(s.rbr, &s.scratch)
			if err != nil {
				return err
			}
			if kind == '-' {
				return fmt.Errorf("resp: %s", data)
			}
		}
		return nil
	case levelBackend:
		if st.batch {
			ops := make([]server.BatchOp, len(st.ops)) // what dispatchBatch hands over
			for i := range st.ops {
				ops[i] = st.ops[i].BatchOp
			}
			for _, r := range s.backend.Batch(context.Background(), ops) {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		}
	}
	for i := range st.ops {
		if err := s.doOp(&st.ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// spanOf names the span of one engine operation; a GET whose value lives
// in an older version is a traceback.
func spanOf(op *lop) spanName {
	switch op.Op {
	case server.OpGet:
		if op.base != 0 && op.base != op.Version {
			return spGetDedup
		}
		return spGet
	case server.OpDropVersion:
		return spDrop
	case server.OpPutDedup:
		return spPutDedup
	}
	return spPut
}

// doOp makes one call into the backend, the engine or the AOF store.
func (s *stack) doOp(op *lop) error {
	ctx := context.Background()
	var err error
	switch s.opts.level {
	case levelBackend:
		switch op.Op {
		case server.OpGet:
			_, err = s.backend.Get(ctx, op.Key, op.Version)
		case server.OpDropVersion:
			err = s.backend.DropVersion(ctx, op.Version)
		default:
			err = s.backend.Put(ctx, op.Key, op.Version, op.Value, op.Op == server.OpPutDedup)
		}
	case levelCore:
		end := s.tr.begin(spanOf(op), s.step)
		switch op.Op {
		case server.OpGet:
			_, _, err = s.db.Get(op.Key, op.Version)
		case server.OpDropVersion:
			_, _, err = s.db.DropVersion(op.Version)
		default:
			_, err = s.db.Put(op.Key, op.Version, op.Value, op.Op == server.OpPutDedup)
		}
		s.tr.end(end)
	case levelAOF:
		end := s.tr.begin(spanOf(op), s.step)
		switch op.Op {
		case server.OpGet:
			_, _, err = s.store.Read(s.refs[op.baseSlot])
		case server.OpDropVersion:
			_, _, _, err = s.store.Append(aof.Record{Version: op.Version, Flags: aof.FlagTombstone | aof.FlagVersionDrop})
		case server.OpPutDedup:
			var base [8]byte
			binary.LittleEndian.PutUint64(base[:], op.base)
			_, _, _, err = s.store.Append(aof.Record{Key: op.Key, Version: op.Version, Flags: aof.FlagDedup, Value: base[:]})
		default:
			s.refs[op.slot], _, _, err = s.store.Append(aof.Record{Key: op.Key, Version: op.Version, Value: op.Value})
		}
		s.tr.end(end)
	}
	return err
}

// rungResult is what one replay of the stream measured.
type rungResult struct {
	wall        time.Duration
	allocBytes  uint64
	allocs      uint64
	dur         [spanNames]time.Duration
	n           [spanNames]int
	fsTime      time.Duration // every blockfs span
	inSpans     time.Duration // every span that has no parent
	stack       *stack        // kept open for the probes; caller closes
	spans       []span
	engineStats core.Stats
}

// runRung preloads a fresh stack and replays the measured steps on it.
func runRung(str *stream, o rungOpts) (*rungResult, error) {
	runtime.GC() // the previous rung's device is garbage now
	s, err := newStack(o, str.slots, 4*str.ops+len(str.steps)+4096)
	if err != nil {
		return nil, err
	}
	for i := range str.preload {
		if err := s.do(&str.preload[i]); err != nil {
			s.close()
			return nil, fmt.Errorf("%s rung preload: %w", levelNames[o.level], err)
		}
	}
	if s.tr != nil {
		s.tr.spans = s.tr.spans[:0] // the preload is not part of the trace
		s.tr.t0 = time.Now()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := range str.steps {
		var req int32 = -1
		if s.step = i; o.level > levelCore {
			req = s.tr.begin(spRequest, i)
		}
		err := s.do(&str.steps[i])
		if req >= 0 {
			s.tr.end(req)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("%s rung step %d: %w", levelNames[o.level], i, err)
		}
	}
	res := &rungResult{wall: time.Since(start), stack: s}
	runtime.ReadMemStats(&m1)
	res.allocBytes, res.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	res.dur, res.n = s.tr.totals()
	res.fsTime = res.dur[spFSAppend] + res.dur[spFSReadAt] + res.dur[spFSOther]
	if s.tr != nil {
		res.spans = s.tr.spans
		for _, sp := range res.spans {
			if sp.parent < 0 {
				res.inSpans += time.Duration(sp.end - sp.start)
			}
		}
	}
	if s.db != nil {
		res.engineStats = s.db.Stats()
	}
	return res, nil
}

// --- the whole ladder -----------------------------------------------------------------

// runLadder replays the stream at every rung and derives the per-layer
// metrics. traceOut, when set, receives every span as a JSON line.
func runLadder(l *live, name string, m map[string]float64, traceOut string) error {
	var str *stream
	if name == "resp-small" {
		str = respSmallStream(l)
	} else {
		str = kvStream(l, name)
	}
	ops := float64(max(str.ops, 1))
	usPerOp := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / ops }
	var out *json.Encoder
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		out = json.NewEncoder(w)
	}
	run := func(o rungOpts, keep bool) (*rungResult, error) {
		r, err := runRung(str, o)
		if err != nil {
			return nil, err
		}
		if out != nil && o.traced && o.registry {
			for i, sp := range r.spans {
				out.Encode(map[string]any{"rung": levelNames[o.level], "id": i, "name": spanLabels[sp.name],
					"op": sp.op, "parent": sp.parent, "start_ns": sp.start, "end_ns": sp.end})
			}
		}
		r.spans = nil
		if !keep {
			r.stack.close()
			r.stack = nil
		}
		return r, nil
	}

	// A throwaway replay grows the heap to its working size first; without
	// it the first rung alone pays the page faults and looks slower.
	if _, err := run(rungOpts{levelCore, false, false}, false); err != nil {
		return err
	}
	door, err := run(rungOpts{str.door, true, true}, false)
	if err != nil {
		return err
	}
	bare, err := run(rungOpts{str.door, false, true}, false)
	if err != nil {
		return err
	}
	backend, err := run(rungOpts{levelBackend, true, true}, false)
	if err != nil {
		return err
	}
	noReg, err := run(rungOpts{levelBackend, true, false}, false)
	if err != nil {
		return err
	}
	store, err := run(rungOpts{levelAOF, true, true}, true)
	if err != nil {
		return err
	}
	probeAOF(store.stack, str, m)
	store.stack = nil
	eng, err := run(rungOpts{levelCore, true, true}, true)
	if err != nil {
		return err
	}
	defer func() { eng.stack.close() }()

	perOp := func(a, b uint64) float64 { return (float64(a) - float64(b)) / ops }
	prefix := "server.wire."
	if str.door == levelRESP {
		prefix = "resp."
	}
	m[prefix+"self_us_per_op"] = usPerOp(door.wall - backend.wall)
	m[prefix+"alloc_bytes_per_op"] = perOp(door.allocBytes, backend.allocBytes)
	m[prefix+"allocs_per_op"] = perOp(door.allocs, backend.allocs)
	m["server.backend.self_us_per_op"] = usPerOp(backend.wall - eng.wall)
	m["server.backend.alloc_bytes_per_op"] = perOp(backend.allocBytes, eng.allocBytes)
	m["server.backend.allocs_per_op"] = perOp(backend.allocs, eng.allocs)
	m["metrics.registry_us_per_op"] = usPerOp(backend.wall - noReg.wall)
	m["core.self_us_per_op"] = usPerOp(eng.wall - store.wall)
	m["aof.self_us_per_op"] = usPerOp(store.wall - store.fsTime)
	m["trace.overhead_pct"] = (float64(door.wall)/float64(bare.wall) - 1) * 100
	m["trace.span_coverage"] = float64(door.inSpans) / float64(door.wall)
	m["ladder.top_us_per_op"] = usPerOp(door.wall)

	avg := func(d time.Duration, n int) float64 {
		return float64(d) / float64(time.Microsecond) / float64(max(n, 1))
	}
	puts, gets := eng.n[spPut]+eng.n[spPutDedup], eng.n[spGet]+eng.n[spGetDedup]
	m["core.put.us_per_op"] = avg(eng.dur[spPut]+eng.dur[spPutDedup], puts)
	m["core.get.us_per_op"] = avg(eng.dur[spGet], eng.n[spGet])
	m["core.get_dedup.us_per_op"] = avg(eng.dur[spGetDedup], eng.n[spGetDedup])
	m["aof.append.us_per_op"] = avg(store.dur[spPut]+store.dur[spPutDedup], store.n[spPut]+store.n[spPutDedup])
	m["aof.read.us_per_op"] = avg(store.dur[spGet], store.n[spGet])
	m["blockfs.append.us_per_op"] = avg(eng.dur[spFSAppend], eng.n[spFSAppend])
	m["blockfs.readat.us_per_op"] = avg(eng.dur[spFSReadAt], eng.n[spFSReadAt])
	m["blockfs.appends_per_put"] = float64(eng.n[spFSAppend]) / float64(max(puts, 1))
	m["blockfs.readats_per_get"] = float64(eng.n[spFSReadAt]) / float64(max(gets, 1))

	es, dev := eng.engineStats, eng.stack.dev.Stats()
	user := float64(max(es.UserWriteBytes, 1))
	m["core.tracebacks_per_get"] = float64(es.Tracebacks) / float64(max(es.Gets, 1))
	m["aof.appended_bytes_per_user_byte"] = float64(es.Store.AppendedBytes) / user
	m["aof.files"] = float64(es.Store.Files)
	m["blockfs.used_bytes_per_live_byte"] = float64(es.Store.DiskBytes) / float64(max(es.Store.LiveBytes, 1))
	m["ssd.sys_write_bytes_per_user_byte"] = float64(dev.SysWriteBytes) / user
	m["ssd.sys_read_bytes_per_user_byte"] = float64(dev.SysReadBytes) / user
	m["ssd.erases"] = float64(dev.Erases)
	m["ssd.virtual_busy_ms"] = float64(dev.BusyTime) / float64(time.Millisecond)

	if err := probeCore(eng.stack, str, m); err != nil {
		return err
	}
	probeSkiplist(es.Keys, m)
	probeMetrics(m)
	return nil
}

// --- probes: figures a mixed stream cannot separate --------------------------------------

const probeOps = 2000

// measureAllocs runs fn n times and returns bytes and objects allocated
// per call.
func measureAllocs(n int, fn func(i int)) (bytes, objects float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// firstOps returns up to n operations of the preload with the given
// opcode: known-good arguments for a probe.
func firstOps(str *stream, code uint8, n int) []lop {
	var out []lop
	for _, st := range str.preload {
		for _, op := range st.ops {
			if op.Op == code {
				if out = append(out, op); len(out) == n {
					return out
				}
			}
		}
	}
	return out
}

func probeAOF(s *stack, str *stream, m map[string]float64) {
	puts := firstOps(str, server.OpPut, probeOps)
	refs := make([]aof.Ref, len(puts))
	m["aof.append.alloc_bytes_per_op"], _ = measureAllocs(len(puts), func(i int) {
		refs[i], _, _, _ = s.store.Append(aof.Record{Key: puts[i].Key, Version: 1 << 40, Value: puts[i].Value})
	})
	m["aof.read.alloc_bytes_per_op"], _ = measureAllocs(len(refs), func(i int) { s.store.Read(refs[i]) })
}

// probeCore measures allocations per Put and Get, the speed-up of two
// reading goroutines over one, and a Close+Open on the rung's final state.
func probeCore(s *stack, str *stream, m map[string]float64) error {
	puts := firstOps(str, server.OpPut, probeOps)
	const probeVersion = 1 << 40 // a version the stream never uses
	m["core.put.alloc_bytes_per_op"], _ = measureAllocs(len(puts), func(i int) {
		s.db.Put(puts[i].Key, probeVersion, puts[i].Value, false)
	})
	get := func(i int) { s.db.Get(puts[i%len(puts)].Key, probeVersion) }
	m["core.get.alloc_bytes_per_op"], m["core.get.allocs_per_op"] = measureAllocs(len(puts), get)

	const rounds = 4
	one := time.Now()
	for i := 0; i < 2*rounds*len(puts); i++ {
		get(i)
	}
	serial := time.Since(one)
	two := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*len(puts); i++ {
				get(2*i + g)
			}
		}(g)
	}
	wg.Wait()
	m["core.get.par2_speedup"] = float64(serial) / float64(time.Since(two))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := s.db.Close(); err != nil {
		return err
	}
	db, err := core.Open(s.fs, s.coreOptions())
	if err != nil {
		return fmt.Errorf("recovery probe: %w", err)
	}
	m["core.recovery_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	runtime.ReadMemStats(&m1)
	m["core.recovery_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	s.closers = []func(){func() { db.Close() }}
	return nil
}

// probeSkiplist times the memtable's structure alone at the item count
// the workload reached.
func probeSkiplist(items int, m map[string]float64) {
	items = max(items, 1024)
	keys := make([]string, items)
	for i := range keys {
		keys[i] = fmt.Sprintf("%020d", mix64(1, uint64(i)))
	}
	cmp := func(a, b string) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	list := skiplist.New[string, int](cmp, 1)
	start := time.Now()
	for i, k := range keys {
		list.Set(k, i)
	}
	m["skiplist.set_ns"] = float64(time.Since(start)) / float64(items)
	start = time.Now()
	for _, k := range keys {
		list.Get(k)
	}
	m["skiplist.get_ns"] = float64(time.Since(start)) / float64(items)
}

// probeMetrics times Histogram.Observe alone and from two goroutines.
func probeMetrics(m map[string]float64) {
	const n = 1 << 20
	h := metrics.NewRegistry().Histogram("bench.probe")
	start := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(float64(i & 1023))
	}
	m["metrics.observe_ns"] = float64(time.Since(start)) / n
	start = time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/2; i++ {
				h.Observe(float64(i & 1023))
			}
		}()
	}
	wg.Wait()
	m["metrics.observe_par2_ns"] = float64(time.Since(start)) / (n / 2)
}
