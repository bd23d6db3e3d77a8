package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"runtime"

	"directload/internal/aof"
	"directload/internal/core"
	"directload/internal/metrics"
)

const (
	defaultMaxInFlight = 64       // GETs parked at once per connection (serverConn.park)
	maxCoalesce        = 64 << 10 // reply bytes written even with more requests buffered
	frameRoom          = 8        // what a reply body is built behind: its frame's len, seq
)

// StatsReply is the JSON payload of OpStats.
type StatsReply struct {
	Engine core.Stats `json:"engine"`
	Conns  int        `json:"conns"`
}

// Server exposes one QinDB engine on a TCP listener, one reader goroutine
// per connection, which runs the connection's requests in order and
// coalesces their replies (serverConn.serve). Only a GET that finds the
// engine's read lock held waits on a goroutine of its own.
//
// The Server owns only the binary wire: framing, sequence numbers, the
// handshake, response encoding. Its Door owns the listener and the
// connections, and every request executes through the Door's Backend,
// which the RESP door (internal/resp) shares.
type Server struct {
	*Door
}

// serverMetrics holds the per-opcode wall-clock latency histograms and the
// listener-wide cells, nil without a registry except conns, which
// StatsReply reads too (then a private cell).
type serverMetrics struct {
	lat      [opMax + 1]*metrics.Histogram
	badReqs  *metrics.Counter
	conns    *metrics.Gauge   // connections across every attached listener
	inflight *metrics.Gauge   // server.pipeline.inflight: requests being run or parked
	batchOps *metrics.Counter // server.batch.ops: sub-ops applied via OpBatch
}

// SetMetrics attaches a registry (exported, in qindbd, over HTTP). Call
// before Serve; nil leaves the server uninstrumented.
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

// handle serves one connection: the hello exchange, then the request
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
	if writeFrame(conn, encodeResponse(StatusOK, []byte{ProtoV2})) == nil {
		(&serverConn{s: s, nc: conn, br: br, parked: make(chan struct{}, defaultMaxInFlight)}).serve()
	}
}

// serverConn is one native connection past its hello: its reader runs the
// requests (serve), and only a parked GET (park) runs elsewhere.
type serverConn struct {
	s          *Server
	nc         net.Conn
	br         *bufio.Reader
	parked     chan struct{} // one slot per parked GET
	frame, out []byte        // the request served, the replies not yet written
}

// serve runs each request on this goroutine in arrival order, as the RESP
// door does, its reply appended behind frameRoom bytes to out, written once
// the next frame is not wholly buffered or out holds maxCoalesce. A
// request's Key and Value (and a batch's sub-ops) are views of its frame,
// reused for the next request: Backend and everything below copy what they
// keep. Neither frame nor out is kept past aof.KeepBuffer.
func (c *serverConn) serve() {
	b := c.s.backend
	for {
		if len(c.out) >= maxCoalesce || (len(c.out) > 0 && !frameBuffered(c.br)) {
			c.write(c.out)
			c.out = keep(c.out)
		}
		seq, frame, err := readFrameSeq(c.br, c.frame)
		if err != nil {
			break
		}
		c.frame = keep(frame)
		req, derr := decodeRequest(frame)
		at := len(c.out)
		c.out = append(c.out, make([]byte, frameRoom)...)
		b.met.inflight.Add(1)
		switch {
		case derr != nil:
			b.met.badReqs.Inc()
			c.out = appendResponse(c.out, StatusFailed, []byte(derr.Error()))
		case req.Op == OpGet:
			out, ok, err := b.TryGetAppend(context.Background(), appendResponse(c.out, StatusOK, nil), req.Key, req.Version)
			if !ok {
				c.out = out[:at]
				c.park(seq, req)
				continue
			}
			c.out = getReply(out, at+frameRoom, err)
		default:
			// Yield first: that wakes an idle P's thread, which polls the
			// network while a long mutator runs here; else a GET on another
			// connection waits for it or sysmon's 10 ms poll (EXPERIMENTS.md).
			runtime.Gosched()
			c.out = c.s.dispatch(context.Background(), req, c.out)
		}
		b.met.inflight.Add(-1) // before the write: a client with every reply sees 0
		seal(c.out[at:], seq)
	}
	for range cap(c.parked) { // wait out the parked GETs
		c.parked <- struct{}{}
	}
}

// park answers a GET that found the engine's read lock held on a goroutine
// of its own, which owns the request's frame and writes its own reply, so
// the requests behind it are not held up. At most defaultMaxInFlight are
// parked at once; beyond that the reader waits, pushing back through TCP.
func (c *serverConn) park(seq uint32, req request) {
	c.parked <- struct{}{}
	c.frame = nil // the GET's key is a view of it
	go func() {
		out, err := c.s.backend.GetAppend(context.Background(), appendResponse(make([]byte, frameRoom), StatusOK, nil), req.Key, req.Version)
		c.s.backend.met.inflight.Add(-1)
		c.write(seal(getReply(out, frameRoom, err), seq))
		<-c.parked
	}()
}

// write puts replies on the wire. The reader and a parked GET may write at
// once: a net.Conn's Write is safe for that, and a TCP connection's (as
// net.Pipe's) writes all of one call before the next. A failed write closes
// the connection, which ends the reader.
func (c *serverConn) write(buf []byte) {
	if _, err := c.nc.Write(buf); err != nil {
		c.nc.Close()
	}
}

// seal fills in the len and seq of a reply frame built behind frameRoom.
func seal(frame []byte, seq uint32) []byte {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	binary.LittleEndian.PutUint32(frame[4:], seq)
	return frame
}

// keep empties buf for reuse, or drops it once it has grown past
// aof.KeepBuffer.
func keep(buf []byte) []byte {
	if cap(buf) > aof.KeepBuffer {
		return nil
	}
	return buf[:0]
}

// frameBuffered reports whether br holds the whole of a well-formed next
// frame (at least its len and seq; a len under 4 wraps around to "no").
func frameBuffered(br *bufio.Reader) bool {
	buf, _ := br.Peek(br.Buffered())
	return len(buf) >= 8 && binary.LittleEndian.Uint32(buf)-4 <= uint32(len(buf)-8)
}

// dispatch executes one request through the Backend and appends the reply
// to dst as a binary-wire response body. The
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
	default: // out of range, a second hello, or the retired OpHas and OpMetrics
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
