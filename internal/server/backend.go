package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"directload/internal/core"
	"directload/internal/metrics"
)

// Backend executes engine operations on behalf of a transport listener.
// It is the transport-agnostic half of the server: every front door —
// the native binary listener in this package, the RESP listener
// in internal/resp — funnels its requests through one Backend, so all
// protocols share one engine, one set of server.* metrics, one slowlog
// and one read SLO. The wire encodings stay with their listeners; the
// Backend deals in keys, versions, values and engine errors
// (core.ErrNotFound, core.ErrDeleted, ...), which each transport maps
// onto its own status vocabulary (StatusError on the binary wire, nil
// bulk strings and -ERR replies on RESP).
//
// Every method takes the caller's context; the engine calls beneath
// take none, so no method consults it today.
//
// A Backend is safe for concurrent use by any number of listeners.
type Backend struct {
	db *core.DB

	slow    atomic.Pointer[metrics.SlowLog]
	readSLO atomic.Pointer[metrics.SLO]

	attr    atomic.Pointer[metrics.AttribTable]
	attrCtr atomic.Uint64

	reg *metrics.Registry
	met serverMetrics
}

// NewBackend wraps an engine for transport-agnostic execution. The
// caller keeps ownership of db and must close it after every listener
// using the backend has stopped.
func NewBackend(db *core.DB) *Backend {
	return &Backend{db: db, met: serverMetrics{conns: new(metrics.Gauge)}}
}

// SetMetrics attaches a registry for the per-opcode latency histograms
// (exported via OpMetrics and, in qindbd, HTTP); a histogram's count is
// its opcode's request count. Call before serving; nil leaves the
// backend uninstrumented.
func (b *Backend) SetMetrics(reg *metrics.Registry) {
	b.reg = reg
	if reg == nil {
		b.met = serverMetrics{conns: new(metrics.Gauge)}
		return
	}
	for op := OpPut; op <= opMax; op++ {
		b.met.lat[op] = reg.Histogram("server.req." + opNames[op] + ".latency_us")
	}
	b.met.badReqs = reg.Counter("server.req.bad")
	b.met.conns = reg.Gauge("server.conns.active")
	b.met.inflight = reg.Gauge("server.pipeline.inflight")
	b.met.batchOps = reg.Counter("server.batch.ops")
}

// SetSlowLog attaches a slow-op log; every executed request whose
// wall-clock latency reaches the log's threshold is recorded with its
// opcode and key prefix. Nil detaches. Safe at runtime.
func (b *Backend) SetSlowLog(l *metrics.SlowLog) {
	b.slow.Store(l)
}

// SetReadSLO attaches a read-availability SLO tracker: every executed
// Get feeds it one event — good when the value was served, bad on
// not-found, deleted or failure. Nil detaches. Safe at runtime.
func (b *Backend) SetReadSLO(slo *metrics.SLO) {
	b.readSLO.Store(slo)
}

// SetAttribution enables sampled per-opcode resource attribution: one
// request in every is measured (alloc bytes/objects and, on linux,
// thread CPU time) and its delta charged to the opcode in the
// /debug/attrib table. every <= 0 disables. Safe at runtime; the table resets on re-enable.
// Because the table hangs off the Backend, it covers every front door —
// native and RESP traffic land in one table.
func (b *Backend) SetAttribution(every int) {
	if every <= 0 {
		b.attr.Store(nil)
		return
	}
	b.attr.Store(metrics.NewAttribTable(every))
}

// Attribution snapshots the per-opcode resource table (zero snapshot
// when attribution is off).
func (b *Backend) Attribution() metrics.AttribSnapshot {
	return b.attr.Load().Snapshot()
}

// ConnOpened notes one transport connection coming up; listeners call
// it on accept so the server.conns.active gauge and StatsReply.Conns
// count every front door, not just the native one.
func (b *Backend) ConnOpened() {
	b.met.conns.Add(1)
}

// ConnClosed undoes ConnOpened.
func (b *Backend) ConnClosed() {
	b.met.conns.Add(-1)
}

// reqMeter is one request's instrumentation, shared by every transport:
// the opcode's latency histogram, the read SLO, the slowlog and sampled
// attribution.
type reqMeter struct {
	b     *Backend
	op    uint8
	attr  *metrics.AttribTable
	res   *metrics.ResourceSample
	start time.Time
}

// begin starts a request's instrumentation; its done must be called
// exactly once with the request's key and outcome.
func (b *Backend) begin(op uint8) reqMeter {
	// Sampled resource attribution: every Nth request across all front
	// doors is measured and its alloc/CPU delta charged to the opcode.
	m := reqMeter{b: b, op: op, attr: b.attr.Load()}
	if m.attr != nil && b.attrCtr.Add(1)%uint64(m.attr.SampleEvery()) == 0 {
		m.res = metrics.BeginResourceSample()
	}
	m.start = time.Now()
	return m
}

func (m reqMeter) done(key []byte, err error) {
	b, op, elapsed := m.b, m.op, time.Since(m.start)
	if m.res != nil {
		// End before the shared instrumentation below, so the bill
		// covers the request's work, not the metrics writes.
		m.attr.Charge(opNames[op], m.res.End())
	}
	b.met.lat[op].Observe(float64(elapsed) / float64(time.Microsecond))
	if op == OpGet {
		b.readSLO.Load().Record(err == nil)
	}
	slow := b.slow.Load()
	if slow == nil {
		return
	}
	var msg string
	if err != nil {
		msg = err.Error()
	}
	slow.Maybe(opNames[op], key, elapsed, msg)
}

// Ping answers liveness; it exists so probes hit the same
// instrumentation path as real traffic.
func (b *Backend) Ping(ctx context.Context) {
	b.begin(OpPing).done(nil, nil)
}

// Put stores value under (key, version); dedup records a
// value-stripped entry whose payload lives in an older version.
func (b *Backend) Put(ctx context.Context, key []byte, version uint64, value []byte, dedup bool) error {
	op := OpPut
	if dedup {
		op = OpPutDedup
	}
	m := b.begin(op)
	_, err := b.db.Put(key, version, value, dedup)
	m.done(key, err)
	return err
}

// Get fetches the value at (key, version), following dedup traceback, in
// a buffer the caller owns. The error is an engine sentinel
// (core.ErrNotFound, core.ErrDeleted) or an engine failure; transports map
// it to their wire vocabulary.
func (b *Backend) Get(ctx context.Context, key []byte, version uint64) ([]byte, error) {
	return b.GetAppend(ctx, nil, key, version)
}

// GetAppend is Get into the caller's buffer: the value is appended to dst
// (see core.DB.GetAppend). On an error dst comes back unextended.
func (b *Backend) GetAppend(ctx context.Context, dst, key []byte, version uint64) ([]byte, error) {
	m := b.begin(OpGet)
	out, _, err := b.db.GetAppend(dst, key, version)
	m.done(key, err)
	return out, err
}

// TryGetAppend is GetAppend if the engine's read lock is free at the call
// (core.DB.TryGetAppend). If not, ok is false and nothing is read or
// counted, so a GetAppend that follows counts the request once.
func (b *Backend) TryGetAppend(ctx context.Context, dst, key []byte, version uint64) (out []byte, ok bool, err error) {
	m := b.begin(OpGet)
	out, _, ok, err = b.db.TryGetAppend(dst, key, version)
	if !ok {
		// Take the begin back: end its sample unbilled, return its slot.
		if m.attr != nil {
			m.res.End()
			b.attrCtr.Add(^uint64(0))
		}
		return dst, false, nil
	}
	m.done(key, err)
	return out, true, err
}

// Del marks (key, version) deleted.
func (b *Backend) Del(ctx context.Context, key []byte, version uint64) error {
	m := b.begin(OpDel)
	_, err := b.db.Del(key, version)
	m.done(key, err)
	return err
}

// DropVersion retires a whole data version.
func (b *Backend) DropVersion(ctx context.Context, version uint64) error {
	m := b.begin(OpDropVersion)
	_, _, err := b.db.DropVersion(version)
	m.done(nil, err)
	return err
}

// Has reports whether (key, version) exists and is live.
func (b *Backend) Has(ctx context.Context, key []byte, version uint64) (bool, error) {
	m := b.begin(OpHas)
	ok := b.db.Has(key, version)
	m.done(key, nil)
	return ok, nil
}

// rangeCap is the most pairs one Range answers, and its default limit.
const rangeCap = 4096

// Range lists newest-live (key, version) pairs in [from, to). A limit
// <= 0 selects rangeCap; positive limits clamp to it. The second return
// value is the limit actually applied.
func (b *Backend) Range(ctx context.Context, from, to []byte, limit int) ([]RangeEntry, int) {
	m := b.begin(OpRange)
	if limit <= 0 || limit > rangeCap {
		limit = rangeCap
	}
	var entries []RangeEntry
	b.db.Range(from, to, func(key []byte, ver uint64) bool {
		entries = append(entries, RangeEntry{Key: append([]byte(nil), key...), Version: ver})
		return len(entries) < limit
	})
	m.done(from, nil)
	return entries, limit
}

// Stats reports engine statistics plus the connection count across
// every attached listener.
func (b *Backend) Stats(ctx context.Context) (StatsReply, error) {
	m := b.begin(OpStats)
	out := StatsReply{Engine: b.db.Stats(), Conns: int(b.met.conns.Load())}
	m.done(nil, nil)
	return out, nil
}

// MetricsJSON snapshots the attached registry as JSON ("{}" when the
// backend runs uninstrumented).
func (b *Backend) MetricsJSON(ctx context.Context) ([]byte, error) {
	m := b.begin(OpMetrics)
	var payload []byte
	var err error
	if b.reg == nil {
		payload = []byte("{}")
	} else {
		payload, err = json.Marshal(b.reg)
	}
	m.done(nil, err)
	return payload, err
}

// MetricsSnapshot returns the registry's typed snapshot, the source the
// RESP INFO command renders from (nil registry returns nil).
func (b *Backend) MetricsSnapshot() map[string]any {
	if b.reg == nil {
		return nil
	}
	return b.reg.Snapshot()
}

// Versions lists the engine's live data versions in ascending order.
func (b *Backend) Versions() []uint64 {
	return b.db.Versions()
}

// KeyCount reports the live keys in one version (RESP DBSIZE and the
// INFO Keyspace section read it).
func (b *Backend) KeyCount(version uint64) int {
	return b.db.KeyCount(version)
}

// BatchResult is the outcome of one sub-op of an executed batch: a nil
// Err, an engine sentinel, or an engine failure.
type BatchResult struct {
	Err error
}

// errNotBatchable rejects sub-ops outside the mutation set.
var errNotBatchable = errors.New("op not batchable")

// Batch applies sub-ops in one instrumented server.req.batch pass with
// the native wire's semantics: failures are reported individually and
// do not poison the rest of the frame.
func (b *Backend) Batch(ctx context.Context, ops []BatchOp) []BatchResult {
	m := b.begin(OpBatch)
	results := b.applyBatch(ops)
	m.done(nil, nil)
	return results
}

// AtomicBatch is the all-or-nothing flavor the RESP front door commits
// MULTI/EXEC queues (and MSET) through: every sub-op is validated
// against the protocol limits before any is applied, so a rejected
// batch leaves no partial writes. Validation failures return the error
// with the engine untouched. Once validation passes the sub-ops are
// applied in one pass exactly like Batch — an engine fault mid-batch is
// reported per-op in the results (Redis EXEC semantics: runtime errors
// do not roll back), with err aggregating them.
func (b *Backend) AtomicBatch(ctx context.Context, ops []BatchOp) ([]BatchResult, error) {
	for i, op := range ops {
		if err := validateBatchOp(op); err != nil {
			return nil, fmt.Errorf("sub-op %d: %w", i, err)
		}
	}
	m := b.begin(OpBatch)
	results := b.applyBatch(ops)
	var errs []error
	for i, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("sub-op %d: %w", i, r.Err))
		}
	}
	err := errors.Join(errs...)
	m.done(nil, err)
	return results, err
}

// validateBatchOp enforces the protocol-level invariants a sub-op must
// satisfy before AtomicBatch may touch the engine.
func validateBatchOp(op BatchOp) error {
	if !batchable(op.Op) {
		return errNotBatchable
	}
	if op.Op != OpDropVersion && len(op.Key) == 0 {
		return core.ErrEmptyKey
	}
	if len(op.Key) > MaxKeyLen {
		return fmt.Errorf("%w: key %d bytes", ErrFrameTooBig, len(op.Key))
	}
	if len(op.Value) > MaxValueLen {
		return fmt.Errorf("%w: value %d bytes", ErrFrameTooBig, len(op.Value))
	}
	return nil
}

// applyBatch executes sub-ops under an already-begun batch frame.
func (b *Backend) applyBatch(ops []BatchOp) []BatchResult {
	results := make([]BatchResult, len(ops))
	for i, op := range ops {
		results[i] = BatchResult{Err: b.execBatchOp(op)}
	}
	b.met.batchOps.Add(int64(len(ops)))
	return results
}

// execBatchOp runs one batched sub-op against the store.
func (b *Backend) execBatchOp(op BatchOp) error {
	var err error
	switch op.Op {
	case OpPut, OpPutDedup:
		_, err = b.db.Put(op.Key, op.Version, op.Value, op.Op == OpPutDedup)
	case OpDel:
		_, err = b.db.Del(op.Key, op.Version)
	case OpDropVersion:
		_, _, err = b.db.DropVersion(op.Version)
	default:
		err = errNotBatchable
	}
	return err
}
