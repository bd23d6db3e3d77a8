package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"sync"

	"directload/internal/aof"
	"directload/internal/core"
	"directload/internal/metrics"
)

// defaultMaxInFlight bounds concurrent dispatch per connection on the
// server and the requests a client keeps outstanding on its connection.
const defaultMaxInFlight = 64

// maxCoalesce caps how many response bytes the writer accumulates
// before forcing a write, bounding both latency and buffer growth.
const maxCoalesce = 64 << 10

// StatsReply is the JSON payload of OpStats.
type StatsReply struct {
	Engine core.Stats `json:"engine"`
	Conns  int        `json:"conns"`
}

// Server exposes one QinDB engine on a TCP listener, one goroutine per
// connection. After the hello a connection is pipelined: up to
// defaultMaxInFlight requests are dispatched concurrently while a
// dedicated writer goroutine serializes responses back onto the wire.
//
// The Server owns only the binary wire: framing, sequence numbers, the
// handshake, response encoding. Every request executes through its
// Backend, which alternate front doors (internal/resp) share.
type Server struct {
	backend *Backend

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
}

// serverMetrics holds per-opcode request counters and wall-clock latency
// histograms, indexed by opcode. All handles are nil without a registry
// except conns, which StatsReply reads too: it is the registry's
// server.conns.active cell when there is one and a private cell
// otherwise.
type serverMetrics struct {
	reqs     [opMax + 1]*metrics.Counter
	lat      [opMax + 1]*metrics.Histogram
	badReqs  *metrics.Counter
	conns    *metrics.Gauge   // connections across every attached listener
	inflight *metrics.Gauge   // server.pipeline.inflight: requests being dispatched
	batchOps *metrics.Counter // server.batch.ops: sub-ops applied via OpBatch
}

// SetMetrics attaches a registry (exported via OpMetrics and, in qindbd,
// HTTP). Call before Serve; nil leaves the server uninstrumented.
func (s *Server) SetMetrics(reg *metrics.Registry) {
	s.backend.SetMetrics(reg)
}

// SetAttribution enables sampled per-opcode resource attribution on the
// shared backend (one request in every measured; <= 0 disables).
func (s *Server) SetAttribution(every int) {
	s.backend.SetAttribution(every)
}

// New wraps an engine. The caller keeps ownership of db and must close
// it after the server stops.
func New(db *core.DB) *Server {
	return NewWithBackend(NewBackend(db))
}

// NewWithBackend builds a native listener over an existing Backend —
// the sharing point for multi-protocol deployments: qindbd hands one
// Backend to both this server and the RESP front door, so both wires
// hit one engine with one set of metrics.
func NewWithBackend(b *Backend) *Server {
	return &Server{
		backend: b,
		conns:   make(map[net.Conn]bool),
	}
}

// Backend returns the server's execution backend, shared with any
// additional front doors.
func (s *Server) Backend() *Backend {
	return s.backend
}

// SetSlowLog attaches a slow-op log; every dispatched request whose
// wall-clock latency reaches the log's threshold is recorded with its
// opcode and key prefix. Nil detaches. Safe at runtime.
func (s *Server) SetSlowLog(l *metrics.SlowLog) {
	s.backend.SetSlowLog(l)
}

// SlowLog returns the attached slow-op log (nil when none).
func (s *Server) SlowLog() *metrics.SlowLog {
	return s.backend.SlowLog()
}

// SetReadSLO attaches a read-availability SLO tracker: every dispatched
// OpGet feeds it one event — good when the get answered StatusOK, bad
// on not-found or failure. Nil detaches. Safe at runtime.
func (s *Server) SetReadSLO(slo *metrics.SLO) {
	s.backend.SetReadSLO(slo)
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr ("host:port", port 0 for ephemeral) and
// serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting and tears down open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// errNoHello refuses a connection whose first frame is not a hello this
// server can accept.
var errNoHello = errors.New("server: first frame must be OpHello asking for protocol 2")

// handle serves one connection: the hello exchange, then the pipelined
// loop. Anything but an acceptable hello as first frame is answered
// with one StatusFailed frame and the connection is closed.
func (s *Server) handle(conn net.Conn) {
	s.backend.ConnOpened()
	defer s.backend.ConnClosed()
	defer s.dropConn(conn)
	br := bufio.NewReader(conn)
	frame, err := readFrame(br)
	if err != nil {
		return // EOF or teardown
	}
	req, err := decodeRequest(frame)
	if err == nil && (req.Op != OpHello || req.Version < ProtoV2) {
		err = errNoHello
	}
	if err != nil {
		s.backend.met.badReqs.Inc()
		writeFrame(conn, encodeResponse(StatusFailed, []byte(err.Error())))
		return
	}
	// The reply is the accepted version, one byte; anything the hello
	// carries after its version is ignored.
	if err := writeFrame(conn, encodeResponse(StatusOK, []byte{ProtoV2})); err != nil {
		return
	}
	s.serveRequests(conn, br)
}

// seqResp pairs a response body with the sequence number it answers.
type seqResp struct {
	seq  uint32
	body []byte
}

// freeList recycles one connection's buffers of one kind — request frames
// or reply bodies: a buffered channel, so it holds at most its capacity
// (defaultMaxInFlight) and neither end ever blocks on it.
type freeList chan []byte

// get returns a recycled buffer, emptied, or nil when there is none.
func (f freeList) get() []byte {
	select {
	case buf := <-f:
		return buf[:0]
	default:
		return nil
	}
}

// put hands buf back, unless it is larger than anything keeps
// (aof.KeepBuffer). The caller must hold the only reference to it.
func (f freeList) put(buf []byte) {
	if cap(buf) == 0 || cap(buf) > aof.KeepBuffer {
		return
	}
	select {
	case f <- buf:
	default:
	}
}

// respWriter is a connection's writer goroutine: it serializes the
// out-of-order completions back onto the wire, coalescing whatever has
// accumulated into one write per syscall, and hands each body back to the
// connection's free list once its bytes are copied or written.
type respWriter struct {
	conn   net.Conn
	bodies freeList
	// buf is the coalescing buffer. Frames are added while it holds less
	// than maxCoalesce and each adds less than maxCoalesce, so it never
	// outgrows the capacity it starts with.
	buf []byte
}

func newRespWriter(conn net.Conn, bodies freeList) *respWriter {
	return &respWriter{conn: conn, bodies: bodies, buf: make([]byte, 0, 2*maxCoalesce)}
}

// run writes responses until respCh is closed. After a write error it
// closes the connection, to unblock the reader, and drains respCh so that
// workers never block.
func (w *respWriter) run(respCh <-chan seqResp) {
	var werr error
	for r := range respCh {
		if werr != nil {
			continue
		}
		w.buf = w.buf[:0]
	coalesce:
		for {
			if werr = w.add(r); werr != nil || len(w.buf) >= maxCoalesce {
				break
			}
			var ok bool
			select {
			case r, ok = <-respCh:
				if !ok {
					break coalesce
				}
			default:
				break coalesce
			}
		}
		if werr == nil && len(w.buf) > 0 {
			_, werr = w.conn.Write(w.buf)
		}
		if werr != nil {
			w.conn.Close()
		}
	}
}

// add appends one frame to the coalescing buffer — or, when the body
// alone is a write's worth, sends what has accumulated, the frame's header
// and the body where it lies in one writev, copying nothing.
func (w *respWriter) add(r seqResp) error {
	defer w.bodies.put(r.body)
	if 8+len(r.body) <= maxCoalesce {
		w.buf = appendFrameSeq(w.buf, r.seq, r.body)
		return nil
	}
	pending := len(w.buf)
	w.buf = appendFrameSeq(w.buf, r.seq, nil)
	binary.LittleEndian.PutUint32(w.buf[pending:], uint32(len(r.body)+4))
	bufs := net.Buffers{w.buf, r.body}
	_, err := bufs.WriteTo(w.conn)
	w.buf = w.buf[:0]
	return err
}

// serveRequests runs the pipelined loop: the reader admits up to
// defaultMaxInFlight requests (the backpressure gate — beyond that it
// stops reading, which pushes back through TCP flow control), each
// dispatched on its own goroutine; a single writer goroutine (respWriter)
// puts the completions back onto the wire. The seq is echoed as read,
// all 32 bits of it.
//
// Request frames and reply bodies are recycled per connection. A request's
// Key and Value (and a batch's sub-ops) are views of its frame, which is
// reused once dispatch has returned: Backend and everything below copy
// what they keep. A reply body belongs to the writer once queued.
func (s *Server) serveRequests(conn net.Conn, br *bufio.Reader) {
	frames, bodies := make(freeList, defaultMaxInFlight), make(freeList, defaultMaxInFlight)
	respCh := make(chan seqResp, defaultMaxInFlight)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		newRespWriter(conn, bodies).run(respCh)
	}()

	sem := make(chan struct{}, defaultMaxInFlight)
	var wg sync.WaitGroup
	for {
		seq, frame, err := readFrameSeq(br, frames.get())
		if err != nil {
			break
		}
		req, derr := decodeRequest(frame)
		sem <- struct{}{}
		s.backend.met.inflight.Add(1)
		wg.Add(1)
		go func(seq uint32, req request, derr error) {
			defer wg.Done()
			resp := bodies.get()
			if derr != nil {
				s.backend.met.badReqs.Inc()
				resp = appendResponse(resp, StatusFailed, []byte(derr.Error()))
			} else {
				resp = s.dispatch(context.Background(), req, resp)
			}
			// Decrement before queueing the response so the gauge
			// never reads >0 after the client has seen every reply.
			s.backend.met.inflight.Add(-1)
			respCh <- seqResp{seq: seq, body: resp}
			frames.put(frame)
			<-sem
		}(seq, req, derr)
	}
	wg.Wait()
	close(respCh)
	<-writerDone
}

// dispatch executes one request through the Backend and appends the reply
// to dst, a recycled buffer (or nil), as a binary-wire response body. The
// Backend owns the transport-agnostic work — engine execution, wall-clock
// timing, per-opcode metrics, the read SLO and the slowlog — so the native and RESP listeners report identically; this
// function owns only the response encoding.
func (s *Server) dispatch(ctx context.Context, req request, dst []byte) []byte {
	if req.Op < OpPut || req.Op > opMax || req.Op == OpHello {
		s.backend.met.badReqs.Inc()
		return appendResponse(dst, StatusFailed, []byte("unknown op"))
	}
	b := s.backend
	switch req.Op {
	case OpPing:
		if err := b.Ping(ctx); err != nil {
			return errResponse(dst, err)
		}
		return appendResponse(dst, StatusOK, []byte("pong"))
	case OpPut, OpPutDedup:
		return statusOnly(dst, b.Put(ctx, req.Key, req.Version, req.Value, req.Op == OpPutDedup))
	case OpGet:
		// The value lands behind a header whose length field is filled in
		// once it is known.
		out, err := b.GetAppend(ctx, appendResponse(dst, StatusOK, nil), req.Key, req.Version)
		if err != nil {
			return errResponse(out[:len(dst)], err)
		}
		binary.LittleEndian.PutUint32(out[len(dst)+1:], uint32(len(out)-len(dst)-respHeaderLen))
		return out
	case OpDel:
		return statusOnly(dst, b.Del(ctx, req.Key, req.Version))
	case OpDropVersion:
		return statusOnly(dst, b.DropVersion(ctx, req.Version))
	case OpHas:
		ok, err := b.Has(ctx, req.Key, req.Version)
		if err != nil {
			return errResponse(dst, err)
		}
		if ok {
			return appendResponse(dst, StatusOK, []byte{1})
		}
		return appendResponse(dst, StatusOK, []byte{0})
	case OpStats:
		reply, err := b.Stats(ctx)
		if err != nil {
			return errResponse(dst, err)
		}
		payload, err := json.Marshal(reply)
		if err != nil {
			return errResponse(dst, err)
		}
		return appendResponse(dst, StatusOK, payload)
	case OpRange:
		// Key = from, Value = exclusive upper bound, Version = limit;
		// limit <= 0 selects the backend default, positive limits clamp
		// to it.
		entries, applied, err := b.Range(ctx, req.Key, req.Value, int(int64(req.Version)))
		if err != nil {
			return errResponse(dst, err)
		}
		return appendResponse(dst, StatusOK, encodeRangeReply(applied, entries))
	case OpBatch:
		return s.dispatchBatch(ctx, req, dst)
	case OpMetrics:
		payload, err := b.MetricsJSON(ctx)
		if err != nil {
			return errResponse(dst, err)
		}
		return appendResponse(dst, StatusOK, payload)
	}
	return appendResponse(dst, StatusFailed, []byte("unknown op"))
}

// dispatchBatch decodes one OpBatch frame and applies it through the
// Backend with native semantics: sub-op failures are reported
// individually; the frame itself succeeds unless it is malformed.
func (s *Server) dispatchBatch(ctx context.Context, req request, dst []byte) []byte {
	subs, err := decodeBatch(req.Value, int(req.Version))
	if err != nil {
		s.backend.met.badReqs.Inc()
		return appendResponse(dst, StatusFailed, []byte(err.Error()))
	}
	ops := make([]BatchOp, len(subs))
	for i, sub := range subs {
		ops[i] = BatchOp{Op: sub.Op, Version: sub.Version, Key: sub.Key, Value: sub.Value}
	}
	results := s.backend.Batch(ctx, ops)
	statuses := make([]subStatus, len(results))
	for i, r := range results {
		statuses[i] = subStatusOf(r.Err)
	}
	return appendResponse(dst, StatusOK, encodeBatchReply(statuses))
}

// subStatusOf maps a sub-op error onto its wire status.
func subStatusOf(err error) subStatus {
	if err == nil {
		return subStatus{status: StatusOK}
	}
	return subStatus{status: statusCode(err), msg: []byte(err.Error())}
}

// statusCode maps an engine error onto a wire status byte.
func statusCode(err error) uint8 {
	switch {
	case errors.Is(err, core.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, core.ErrDeleted):
		return StatusDeleted
	default:
		return StatusFailed
	}
}

func statusOnly(dst []byte, err error) []byte {
	if err != nil {
		return errResponse(dst, err)
	}
	return appendResponse(dst, StatusOK, nil)
}

func errResponse(dst []byte, err error) []byte {
	return appendResponse(dst, statusCode(err), []byte(err.Error()))
}
