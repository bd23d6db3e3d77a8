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
// concurrent use and sends one request at a time: a call holds the
// connection from writing its frame to reading its reply, and concurrent
// callers queue for it. Every method takes a context and honours its
// deadline and cancellation, in the queue too. A call abandoned that way
// once its request is on the wire closes the connection, whose reply
// would otherwise arrive unclaimed, and so does any transport failure;
// the next call redials. An idle client runs no goroutine.
type Client struct {
	addr string
	opts dialOptions
	slot chan struct{} // one token, held by the call using the connection

	mu     sync.Mutex // guards conn and closed; never held across I/O
	conn   *wireConn
	closed bool
}

// Dial connects to a QinDB server and performs the hello exchange; a
// server that refuses the hello is a dial error.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	c := &Client{addr: addr, slot: make(chan struct{}, 1)}
	for _, opt := range opts {
		opt(&c.opts)
	}
	ctx, cancel := c.withTimeout(context.Background())
	defer cancel()
	w, err := dialWire(ctx, addr)
	if err != nil {
		return nil, err
	}
	c.conn = w
	return c, nil
}

// Close tears down the connection; a call in progress fails.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.close()
}

// pick returns the connection, redialing it when it broke (a node
// restart heals on the next call). The caller holds the slot, so no
// other call dials meanwhile.
func (c *Client) pick(ctx context.Context) (*wireConn, error) {
	c.mu.Lock()
	w, closed := c.conn, c.closed
	c.mu.Unlock()
	if closed {
		return nil, errClientClosed
	}
	if !w.broken() {
		return w, nil
	}
	w, err := dialWire(ctx, c.addr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		w.close()
		return nil, errClientClosed
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

// do runs one request: it waits for the slot, then makes the round trip
// on the connection.
func (c *Client) do(ctx context.Context, req request) (uint8, []byte, error) {
	body, err := encodeRequest(req)
	if err != nil {
		return 0, nil, err
	}
	ctx, cancel := c.withTimeout(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		return 0, nil, err // before select could take the slot and close the connection
	}
	select {
	case c.slot <- struct{}{}:
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	}
	defer func() { <-c.slot }()
	w, err := c.pick(ctx)
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

// wireConn is one TCP connection, used by one call at a time.
type wireConn struct {
	c   net.Conn
	br  *bufio.Reader
	seq uint32 // the last request's

	bad atomic.Bool // closed: the next call redials
}

// dialWire opens one connection and performs the hello exchange, within
// ctx: if ctx ends first, the connection is closed under the exchange.
func dialWire(ctx context.Context, addr string) (*wireConn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &wireConn{c: nc, br: bufio.NewReader(nc)}
	stop := context.AfterFunc(ctx, func() { w.close() })
	err = w.negotiate()
	if !stop() {
		err = ctx.Err()
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// negotiate sends a bare hello and interprets the answer: StatusOK with
// the accepted version as its one payload byte. Any other answer fails
// the dial.
func (w *wireConn) negotiate() error {
	body, err := encodeRequest(request{Op: OpHello, Version: ProtoV2})
	if err != nil {
		return err
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

// broken reports whether the connection was closed.
func (w *wireConn) broken() bool { return w.bad.Load() }

// close tears the connection down; a second close does nothing.
func (w *wireConn) close() error {
	if w.bad.Swap(true) {
		return nil
	}
	return w.c.Close()
}

// call makes one round trip: it writes the request under the next
// sequence number and reads the reply, which must carry the same one.
// If ctx ends first, the connection is closed under the call, which
// unblocks it. Any failure leaves the connection closed.
func (w *wireConn) call(ctx context.Context, body []byte) (uint8, []byte, error) {
	w.seq++
	stop := context.AfterFunc(ctx, func() { w.close() })
	status, payload, err := w.roundTrip(w.seq, body)
	if !stop() || err != nil {
		w.close() // ctx ended mid-call, or the stream is in an unknown state
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return 0, nil, cerr
		}
		return 0, nil, fmt.Errorf("qindb client: connection lost: %w", err)
	}
	return status, payload, nil
}

// roundTrip writes one sequenced frame and reads the reply to it.
func (w *wireConn) roundTrip(seq uint32, body []byte) (uint8, []byte, error) {
	if _, err := w.c.Write(appendFrameSeq(make([]byte, 0, 8+len(body)), seq, body)); err != nil {
		return 0, nil, err
	}
	got, frame, err := readFrameSeq(w.br, nil)
	if err != nil {
		return 0, nil, err
	}
	if got != seq {
		return 0, nil, fmt.Errorf("%w: reply to seq %d, want %d", ErrBadFrame, got, seq)
	}
	return decodeResponse(frame)
}
