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

// Server exposes one QinDB engine on a TCP listener, one reader goroutine
// per connection. After the hello a connection is pipelined: the reader
// answers a GET that finds the connection idle, up to defaultMaxInFlight
// other requests run concurrently, and every reply leaves by the
// connection's one coalescing writer (serveRequests).
//
// The Server owns only the binary wire: framing, sequence numbers, the
// handshake, response encoding. Its Door owns the listener and the
// connections, and every request executes through the Door's Backend,
// which the RESP door (internal/resp) shares.
type Server struct {
	*Door
}

// serverMetrics holds the per-opcode wall-clock latency histograms,
// indexed by opcode, and the listener-wide cells. All handles are nil
// without a registry except conns, which StatsReply reads too: it is the
// registry's server.conns.active cell when there is one and a private
// cell otherwise.
type serverMetrics struct {
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
	s := &Server{}
	s.Door = NewDoor(b, s.handle)
	return s
}

// SetSlowLog attaches a slow-op log; every request whose wall-clock
// latency reaches the log's threshold is recorded with its opcode and key
// prefix. Nil detaches. Safe at runtime.
func (s *Server) SetSlowLog(l *metrics.SlowLog) {
	s.backend.SetSlowLog(l)
}

// SetReadSLO attaches a read-availability SLO tracker: every OpGet feeds
// it one event — good when the get answered StatusOK, bad on not-found or
// failure. Nil detaches. Safe at runtime.
func (s *Server) SetReadSLO(slo *metrics.SLO) {
	s.backend.SetReadSLO(slo)
}

// errNoHello refuses a connection whose first frame is not a hello this
// server can accept.
var errNoHello = errors.New("server: first frame must be OpHello asking for protocol 2")

// handle serves one connection: the hello exchange, then the pipelined
// loop. Anything but an acceptable hello as first frame is answered
// with one StatusFailed frame and the connection is closed.
func (s *Server) handle(conn net.Conn) {
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

// frameRoom is the room a reply body is built behind: its frame's len, seq.
const frameRoom = 8

// respWriter is a connection's one write path. A completion that finds it
// idle writes what has accumulated in buf and its own frame from where it
// lies, in one writev, then what accumulates meanwhile; one that finds it
// busy copies its frame into buf and leaves. A write error closes the
// connection, which unblocks the reader and fails every later write.
type respWriter struct {
	conn   net.Conn
	bodies freeList
	iov    [2][]byte   // the writer's writev, kept here so that
	bufs   net.Buffers // a write allocates nothing

	mu   sync.Mutex
	busy bool // a completion is writing
	// buf holds the frames waiting, spare the ones being written. A frame
	// is copied into buf only while buf holds less than maxCoalesce and only
	// if it is no longer than maxCoalesce, so neither outgrows its capacity.
	buf, spare []byte
	// idle, made by a completion that must wait for the writer, is closed
	// when the writer stops; the writer stops after its current write once
	// one is waiting, so nobody waits longer than that.
	idle chan struct{}
}

// send puts one reply on the wire and then recycles its buffer: frame is
// the reply body behind frameRoom bytes, which send fills in. A frame that
// finds the writer busy and cannot be copied into buf, because it or buf
// is a write's worth already, waits for the writer to stop.
func (w *respWriter) send(seq uint32, frame []byte) {
	defer w.bodies.put(frame)
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	binary.LittleEndian.PutUint32(frame[4:], seq)
	w.mu.Lock()
	for w.busy && (len(frame) > maxCoalesce || len(w.buf) >= maxCoalesce) {
		if w.idle == nil {
			w.idle = make(chan struct{})
		}
		idle := w.idle
		w.mu.Unlock()
		<-idle
		w.mu.Lock()
	}
	if w.busy {
		if w.buf == nil {
			w.buf = make([]byte, 0, 2*maxCoalesce)
		}
		w.buf = append(w.buf, frame...)
		w.mu.Unlock()
		return
	}
	w.busy = true
	for frame != nil || (len(w.buf) > 0 && w.idle == nil) {
		out := w.buf
		w.buf, w.spare = w.spare[:0], out
		w.mu.Unlock()
		w.iov = [2][]byte{out, frame} // writev skips an empty one
		w.bufs = w.iov[:]
		if _, err := w.bufs.WriteTo(w.conn); err != nil {
			w.conn.Close()
		}
		frame = nil
		w.mu.Lock()
	}
	// What is left in buf, if anything, is for a waiter to write.
	w.busy = false
	if w.idle != nil {
		close(w.idle)
		w.idle = nil
	}
	w.mu.Unlock()
}

// serveRequests runs the pipelined loop, echoing each seq as read. A GET on
// an idle connection whose engine read lock is free is answered here; a
// pipelined burst, any mutator and a GET that would wait behind a
// retirement or GC hold run on goroutines, up to defaultMaxInFlight (the
// backpressure gate: beyond it the reader stops reading, which pushes back
// through TCP flow control).
//
// Request frames and reply bodies are recycled per connection. A request's
// Key and Value (and a batch's sub-ops) are views of its frame, reused once
// its reply is sent: Backend and everything below copy what they keep.
func (s *Server) serveRequests(conn net.Conn, br *bufio.Reader) {
	frames, bodies := make(freeList, defaultMaxInFlight), make(freeList, defaultMaxInFlight)
	w := &respWriter{conn: conn, bodies: bodies}
	sem := make(chan struct{}, defaultMaxInFlight)
	var wg sync.WaitGroup
	for {
		seq, frame, err := readFrameSeq(br, frames.get())
		if err != nil {
			break
		}
		req, derr := decodeRequest(frame)
		resp := append(bodies.get(), make([]byte, frameRoom)...)
		s.backend.met.inflight.Add(1)
		if derr == nil && req.Op == OpGet && len(sem) == 0 && br.Buffered() == 0 {
			out, ok, err := s.backend.TryGetAppend(context.Background(), appendResponse(resp, StatusOK, nil), req.Key, req.Version)
			if ok {
				s.backend.met.inflight.Add(-1)
				w.send(seq, getReply(out, frameRoom, err))
				frames.put(frame)
				continue
			}
			resp = out[:frameRoom]
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(seq uint32, req request, derr error, resp []byte) {
			defer wg.Done()
			if derr != nil {
				s.backend.met.badReqs.Inc()
				resp = appendResponse(resp, StatusFailed, []byte(derr.Error()))
			} else {
				resp = s.dispatch(context.Background(), req, resp)
			}
			// Decrement before sending the reply so the gauge never reads
			// >0 after the client has seen every reply.
			s.backend.met.inflight.Add(-1)
			w.send(seq, resp)
			frames.put(frame)
			<-sem
		}(seq, req, derr, resp)
	}
	wg.Wait()
}

// dispatch executes one request through the Backend and appends the reply
// to dst, a recycled buffer (or nil), as a binary-wire response body. The
// Backend owns the transport-agnostic work — engine execution, wall-clock
// timing, per-opcode metrics, the read SLO and the slowlog — so the native and RESP listeners report identically; this
// function owns only the response encoding.
func (s *Server) dispatch(ctx context.Context, req request, dst []byte) []byte {
	b := s.backend
	switch req.Op {
	case OpPing:
		b.Ping(ctx)
		return appendResponse(dst, StatusOK, []byte("pong"))
	case OpPut, OpPutDedup:
		return statusOnly(dst, b.Put(ctx, req.Key, req.Version, req.Value, req.Op == OpPutDedup))
	case OpGet:
		out, err := b.GetAppend(ctx, appendResponse(dst, StatusOK, nil), req.Key, req.Version)
		return getReply(out, len(dst), err)
	case OpDel:
		return statusOnly(dst, b.Del(ctx, req.Key, req.Version))
	case OpDropVersion:
		return statusOnly(dst, b.DropVersion(ctx, req.Version))
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
		entries, applied := b.Range(ctx, req.Key, req.Value, int(int64(req.Version)))
		return appendResponse(dst, StatusOK, encodeRangeReply(applied, entries))
	case OpBatch:
		return s.dispatchBatch(ctx, req, dst)
	case OpMetrics:
		payload, err := b.MetricsJSON(ctx)
		if err != nil {
			return errResponse(dst, err)
		}
		return appendResponse(dst, StatusOK, payload)
	default: // out of range, a second hello, or the retired OpHas
		b.met.badReqs.Inc()
		return appendResponse(dst, StatusFailed, []byte("unknown op"))
	}
}

// getReply finishes a GET's reply body, begun at out[at:] as a StatusOK
// header with the value appended behind it: the header's length field is
// filled in now that it is known, or the body becomes the error's.
func getReply(out []byte, at int, err error) []byte {
	if err != nil {
		return errResponse(out[:at], err)
	}
	binary.LittleEndian.PutUint32(out[at+1:], uint32(len(out)-at-respHeaderLen))
	return out
}

// dispatchBatch decodes one OpBatch frame and applies it through the
// Backend with native semantics: sub-op failures are reported
// individually; the frame itself succeeds unless it is malformed.
func (s *Server) dispatchBatch(ctx context.Context, req request, dst []byte) []byte {
	ops, err := decodeBatch(req.Value, int(req.Version))
	if err != nil {
		s.backend.met.badReqs.Inc()
		return appendResponse(dst, StatusFailed, []byte(err.Error()))
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
