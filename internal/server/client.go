package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// errClientClosed reports use after Close.
var errClientClosed = errors.New("qindb client: closed")

// dialOptions collects the functional Dial configuration.
type dialOptions struct {
	timeout time.Duration // default per-op deadline (0 = none)
}

// DialOption configures Dial.
type DialOption func(*dialOptions)

// WithTimeout sets the default per-operation deadline, applied whenever
// a call's context carries none. It also bounds the TCP dial and the
// protocol handshake. Zero (the default) means no deadline.
func WithTimeout(d time.Duration) DialOption {
	return func(o *dialOptions) { o.timeout = d }
}

// Client is a QinDB client over one TCP connection. It is safe for
// concurrent use. Requests are pipelined: many calls share the
// connection simultaneously, up to defaultMaxInFlight outstanding, and
// complete out of order. Every method takes a context and honors its
// deadline and cancellation; a call abandoned that way leaves the
// connection usable, because its late response is discarded by sequence
// number.
type Client struct {
	addr string
	opts dialOptions

	mu     sync.Mutex // guards conn (redial in place) and closed
	conn   *wireConn  // nil after a failed redial
	closed bool
}

// Dial connects to a QinDB server and performs the hello exchange; a
// server that refuses the hello is a dial error.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	var o dialOptions
	for _, opt := range opts {
		opt(&o)
	}
	w, err := dialWire(addr, o.timeout)
	if err != nil {
		return nil, err
	}
	return &Client{addr: addr, opts: o, conn: w}, nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	return c.conn.close()
}

// pick returns the connection, redialing it in place when it broke (a
// node restart heals on the next call).
func (c *Client) pick() (*wireConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.conn != nil && !c.conn.broken() {
		return c.conn, nil
	}
	if c.conn != nil {
		c.conn.close()
		c.conn = nil
	}
	w, err := dialWire(c.addr, c.opts.timeout)
	if err != nil {
		return nil, err
	}
	c.conn = w
	return w, nil
}

// withTimeout applies the configured default deadline when ctx carries
// none.
func (c *Client) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.opts.timeout <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.opts.timeout)
}

// do runs one request on the connection.
func (c *Client) do(ctx context.Context, req request) (uint8, []byte, error) {
	body, err := encodeRequest(req)
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	w, err := c.pick()
	if err != nil {
		return 0, nil, err
	}
	return w.call(ctx, body)
}

// --- operations -------------------------------------------------------------

// PutContext stores value under (key, version); dedup marks a
// value-stripped entry whose payload lives in an older version.
func (c *Client) PutContext(ctx context.Context, key []byte, version uint64, value []byte, dedup bool) error {
	op := OpPut
	if dedup {
		op = OpPutDedup
	}
	status, payload, err := c.do(ctx, request{Op: op, Version: version, Key: key, Value: value})
	if err != nil {
		return err
	}
	return statusErr(status, payload)
}

// GetContext fetches the value at (key, version), following dedup
// traceback server-side.
func (c *Client) GetContext(ctx context.Context, key []byte, version uint64) ([]byte, error) {
	status, payload, err := c.do(ctx, request{Op: OpGet, Version: version, Key: key})
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// DelContext marks (key, version) deleted.
func (c *Client) DelContext(ctx context.Context, key []byte, version uint64) error {
	status, payload, err := c.do(ctx, request{Op: OpDel, Version: version, Key: key})
	if err != nil {
		return err
	}
	return statusErr(status, payload)
}

// DropVersionContext retires a whole data version.
func (c *Client) DropVersionContext(ctx context.Context, version uint64) error {
	status, payload, err := c.do(ctx, request{Op: OpDropVersion, Version: version})
	if err != nil {
		return err
	}
	return statusErr(status, payload)
}

// RangeContext lists newest-live (key, version) pairs in [from, to).
// limit <= 0 requests the server default; the second return value is
// the limit the server actually applied (its cap clamps large asks).
func (c *Client) RangeContext(ctx context.Context, from, to []byte, limit int) ([]RangeEntry, int, error) {
	status, payload, err := c.do(ctx, request{
		Op: OpRange, Version: uint64(int64(limit)), Key: from, Value: to,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := statusErr(status, payload); err != nil {
		return nil, 0, err
	}
	return decodeRangeReply(payload)
}

// StatsContext fetches engine statistics.
func (c *Client) StatsContext(ctx context.Context) (StatsReply, error) {
	var out StatsReply
	status, payload, err := c.do(ctx, request{Op: OpStats})
	if err != nil {
		return out, err
	}
	if err := statusErr(status, payload); err != nil {
		return out, err
	}
	err = json.Unmarshal(payload, &out)
	return out, err
}

// MetricsContext fetches the server's metrics registry snapshot.
// Counter and gauge values decode as float64; histograms as nested maps
// (count, mean, p50, p99, ...). An uninstrumented server returns an
// empty map.
func (c *Client) MetricsContext(ctx context.Context) (map[string]any, error) {
	status, payload, err := c.do(ctx, request{Op: OpMetrics})
	if err != nil {
		return nil, err
	}
	if err := statusErr(status, payload); err != nil {
		return nil, err
	}
	out := make(map[string]any)
	err = json.Unmarshal(payload, &out)
	return out, err
}

// PingContext checks liveness.
func (c *Client) PingContext(ctx context.Context) error {
	status, payload, err := c.do(ctx, request{Op: OpPing})
	if err != nil {
		return err
	}
	if err := statusErr(status, payload); err != nil {
		return err
	}
	if string(payload) != "pong" {
		return fmt.Errorf("qindb client: unexpected ping reply %q", payload)
	}
	return nil
}

// --- wire connection --------------------------------------------------------

// wireResp is one decoded response delivered to a waiter.
type wireResp struct {
	status  uint8
	payload []byte
	err     error
}

// wireConn is one TCP connection. A background reader demultiplexes
// responses to waiters by sequence number, so many calls can be in
// flight at once (bounded by sem).
type wireConn struct {
	c  net.Conn
	br *bufio.Reader // read by negotiate, then only by readLoop

	// Demux state.
	pmu     sync.Mutex
	nextSeq uint32
	pend    map[uint32]chan wireResp
	sem     chan struct{}
	done    chan struct{} // closed by the reader on connection death
	readErr error         // set before done is closed

	// Write coalescing: senders append frames under fmu; the flush
	// goroutine drains the buffer with one write per syscall. Growth is
	// bounded by sem — at most defaultMaxInFlight frames can be buffered.
	fmu  sync.Mutex
	fbuf []byte
	fsig chan struct{} // capacity 1: "the buffer is non-empty"

	bad atomic.Bool // any I/O failure poisons the conn (stream unsynced)
}

// dialWire opens one connection, performs the hello exchange and starts
// the connection's reader and flusher.
func dialWire(addr string, timeout time.Duration) (*wireConn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	w := &wireConn{
		c:    nc,
		br:   bufio.NewReader(nc),
		pend: make(map[uint32]chan wireResp),
		sem:  make(chan struct{}, defaultMaxInFlight),
		done: make(chan struct{}),
		fsig: make(chan struct{}, 1),
	}
	if err := w.negotiate(timeout); err != nil {
		nc.Close()
		return nil, err
	}
	go w.readLoop()
	go w.flushLoop(timeout)
	return w, nil
}

// negotiate sends a bare hello and interprets the answer: StatusOK with
// the accepted version as its one payload byte. Any other answer fails
// the dial.
func (w *wireConn) negotiate(timeout time.Duration) error {
	body, err := encodeRequest(request{Op: OpHello, Version: ProtoV2})
	if err != nil {
		return err
	}
	if timeout > 0 {
		w.c.SetDeadline(time.Now().Add(timeout))
		defer w.c.SetDeadline(time.Time{})
	}
	if err := writeFrame(w.c, body); err != nil {
		return err
	}
	frame, err := readFrame(w.br)
	if err != nil {
		return err
	}
	status, payload, err := decodeResponse(frame)
	if err != nil {
		return err
	}
	if err := statusErr(status, payload); err != nil {
		return fmt.Errorf("qindb client: hello refused: %w", err)
	}
	if len(payload) != 1 {
		return fmt.Errorf("qindb client: malformed hello reply (%d bytes)", len(payload))
	}
	if payload[0] != ProtoV2 {
		return fmt.Errorf("qindb client: server accepted protocol %d, want %d", payload[0], ProtoV2)
	}
	return nil
}

// broken reports whether the connection is unusable.
func (w *wireConn) broken() bool { return w.bad.Load() }

// close tears the connection down; the read loop then fails any
// waiters.
func (w *wireConn) close() error {
	w.bad.Store(true)
	return w.c.Close()
}

// call pipelines one request. It acquires an in-flight slot, registers
// a sequence number and queues the frame for the flush goroutine, then
// waits for the demuxed response. The slot is released when the
// response arrives (whether or not anyone still awaits it) or the call
// is unregistered. Write failures surface through connection death.
func (w *wireConn) call(ctx context.Context, body []byte) (uint8, []byte, error) {
	select {
	case w.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	case <-w.done:
		return 0, nil, w.readErr
	}

	ch := make(chan wireResp, 1)
	w.pmu.Lock()
	w.nextSeq++
	seq := w.nextSeq
	w.pend[seq] = ch
	w.pmu.Unlock()

	w.fmu.Lock()
	w.fbuf = appendFrameSeq(w.fbuf, seq, body)
	w.fmu.Unlock()
	select {
	case w.fsig <- struct{}{}:
	default: // a wakeup is already queued
	}
	return w.await(ctx, seq, ch)
}

// flushLoop writes queued frames, coalescing everything that
// accumulated while the previous syscall was in flight into the next
// one. A write failure poisons the connection and closes it, which
// fails every pending call via the read loop.
func (w *wireConn) flushLoop(timeout time.Duration) {
	for {
		select {
		case <-w.fsig:
		case <-w.done:
			return
		}
		w.fmu.Lock()
		buf := w.fbuf
		w.fbuf = nil
		w.fmu.Unlock()
		if len(buf) == 0 {
			continue
		}
		if timeout > 0 {
			w.c.SetWriteDeadline(time.Now().Add(timeout))
		}
		if _, err := w.c.Write(buf); err != nil {
			w.bad.Store(true)
			w.c.Close() // the read loop fails all pending calls
			return
		}
	}
}

// await waits for the demuxed response, the context, or connection
// death. A cancellation or teardown can race with the response itself:
// if the reader already claimed the sequence number, its outcome is in
// flight to ch, so take it rather than the wakeup's error. Otherwise
// unregistering guarantees no response will come (the reader discards
// unclaimed sequence numbers; the stream itself stays synced).
func (w *wireConn) await(ctx context.Context, seq uint32, ch chan wireResp) (uint8, []byte, error) {
	select {
	case r := <-ch:
		return r.status, r.payload, r.err
	case <-ctx.Done():
		if w.unregister(seq) {
			return 0, nil, ctx.Err()
		}
	case <-w.done:
		if w.unregister(seq) {
			return 0, nil, w.readErr
		}
	}
	r := <-ch
	return r.status, r.payload, r.err
}

// unregister removes seq from the pending map, reporting whether this
// call removed it. Whoever removes the entry — this or the read loop —
// owns releasing the in-flight slot, so the release happens exactly
// once per sequence number. A false return means the reader claimed the
// call first and will deliver its outcome on the pending channel.
func (w *wireConn) unregister(seq uint32) bool {
	w.pmu.Lock()
	_, ok := w.pend[seq]
	delete(w.pend, seq)
	w.pmu.Unlock()
	if ok {
		<-w.sem
	}
	return ok
}

// readLoop demultiplexes responses to their waiters by sequence
// number. On connection death it fails every pending waiter.
func (w *wireConn) readLoop() {
	for {
		seq, frame, err := readFrameSeq(w.br, nil)
		if err != nil {
			w.bad.Store(true)
			w.pmu.Lock()
			pend := w.pend
			w.pend = make(map[uint32]chan wireResp)
			w.pmu.Unlock()
			w.readErr = fmt.Errorf("qindb client: connection lost: %w", err)
			close(w.done)
			for _, ch := range pend {
				ch <- wireResp{err: w.readErr}
			}
			return
		}
		status, payload, derr := decodeResponse(frame)
		w.pmu.Lock()
		ch := w.pend[seq]
		delete(w.pend, seq)
		w.pmu.Unlock()
		if ch != nil {
			ch <- wireResp{status: status, payload: payload, err: derr}
			<-w.sem // response delivered: free the in-flight slot
		}
	}
}
