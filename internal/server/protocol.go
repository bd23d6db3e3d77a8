// Package server exposes a QinDB engine over TCP with a compact binary
// protocol, plus a matching client — the network face a storage node in
// a Mint group presents inside a data center. The protocol is
// deliberately minimal (the paper's front-ends speak an internal RPC):
// length-prefixed, sequence-numbered request/response frames carrying
// the mutated GET/PUT/DEL operations of paper Fig. 2.
//
// # Handshake
//
// A connection opens with exactly one unsequenced exchange (all
// integers little-endian):
//
//	hello: len u32 | OpHello u8 | version u64 | keyLen u16 (=0) | valLen u32 (=0)
//	reply: len u32 | status u8 | payloadLen u32 (=1) | version u8
//
// version is the protocol version the client speaks (ProtoV2). The
// server answers StatusOK with a one-byte payload, the accepted version,
// 2; a value in the hello is ignored. Every frame after the reply is a
// sequenced frame as described below. Anything else as first frame, or
// a hello asking for a version below 2, is answered with one
// StatusFailed reply and the connection is closed; the client treats a
// non-OK, sub-2 or longer reply as a dial error.
//
// # Frames (pipelined)
//
// Every frame carries a per-request sequence number directly after the
// length prefix:
//
//	request:  len u32 | seq u32 | op u8 | version u64 | keyLen u16 | key | valLen u32 | value
//	response: len u32 | seq u32 | status u8 | payloadLen u32 | payload
//
// (len counts everything after itself, including seq.) All 32 bits of
// seq are the client's: it wraps at 2^32, and the server echoes it
// unread. A client may keep many requests in flight on one connection
// (this package's Client keeps one). The server runs and answers them in
// arrival order, but for a GET that finds the engine's lock held: it is
// parked (up to 64 per connection) and may run and answer after requests
// sent behind it. seq matches a response to its request.
//
// # Connections
//
// Both front doors, Server and internal/resp's, are a Door: one accept
// loop, one set of open connections that Close tears down, and one
// server.conns.active count. A door brings only its per-connection
// handler.
//
// One goroutine reads each native connection and runs its requests, as
// the RESP door does, writing their replies together once the next frame
// is not wholly buffered (serverConn.serve).
//
// # OpBatch
//
// OpBatch packs N mutation sub-ops into one frame: Version holds the
// sub-op count and Value the concatenated sub-ops, each encoded like a
// request body (op u8 | version u64 | keyLen u16 | key | valLen u32 |
// value). Only OpPut, OpPutDedup, OpDel and OpDropVersion may appear as
// sub-ops. The server applies the batch in one pass and answers
// StatusOK with one status per sub-op:
//
//	payload: count u32, then per sub-op: status u8 | msgLen u16 | msg
//
// msg is empty for StatusOK entries. A failing sub-op does not poison
// the frame: the remaining sub-ops are still applied and reported
// individually.
//
// # OpRange
//
// The request reuses the generic fields: Key = inclusive lower bound,
// Value = exclusive upper bound, Version = limit. A limit <= 0 means
// "server default" (the server's range cap, 4096);
// a positive limit is clamped to that cap. The reply payload leads with
// the applied limit:
//
//	payload: appliedLimit u32, then per hit: keyLen u16 | key | version u64
//
// For OpStats the payload is a JSON-encoded StatsReply.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"directload/internal/aof"
)

// Protocol ops.
const (
	OpPut uint8 = iota + 1
	OpPutDedup
	OpGet
	OpDel
	OpDropVersion
	OpHas // not served natively: the metric label of RESP EXISTS (Backend.Has)
	OpStats
	OpRange
	OpPing
	OpMetrics // retired: answered "unknown op"; the registry is served over HTTP
	OpHello   // the handshake: first frame of every connection, and only there
	OpBatch   // N packed mutation sub-ops in one frame
)

// opMax is the highest assigned opcode (bounds the per-opcode arrays).
const opMax = OpBatch

// ProtoV2 is the protocol version this package speaks: the number a
// hello asks for and the server's reply accepts.
const ProtoV2 = 2

// opNames labels the ops a Backend method begins, for per-opcode metric
// names; the hello and the retired OpMetrics have none, so no series.
var opNames = [opMax + 1]string{
	OpPut: "put", OpPutDedup: "putd", OpGet: "get", OpDel: "del",
	OpDropVersion: "drop", OpHas: "has", OpStats: "stats",
	OpRange: "range", OpPing: "ping", OpBatch: "batch",
}

// Response statuses. (StatusFailed was once named StatusError; the
// name now belongs to the error type carrying these codes to callers.)
const (
	StatusOK uint8 = iota
	StatusNotFound
	StatusDeleted
	StatusFailed
)

// Protocol limits: a request may carry one key and one value (a batch
// frame may carry many sub-ops up to the frame cap). Both are the
// record format's limits, which the engine enforces too.
const (
	MaxKeyLen   = aof.MaxKeyLen
	MaxValueLen = aof.MaxValueLen
	maxFrame    = MaxValueLen + MaxKeyLen + 64
)

// Protocol errors.
var (
	ErrFrameTooBig = errors.New("server: frame exceeds protocol limit")
	ErrBadFrame    = errors.New("server: malformed frame")
)

// request is one decoded client request.
type request struct {
	Op      uint8
	Version uint64
	Key     []byte
	Value   []byte
}

// writeFrame writes one unsequenced length-prefixed frame — the
// handshake's framing.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return ErrFrameTooBig
	}
	buf := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := w.Write(buf) // one write: a frame never splits into two syscalls
	return err
}

// readFrame reads one unsequenced length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	return readBody(r, nil, int(n))
}

// frameStep is the most a frame buffer grows ahead of the bytes received.
const frameStep = 1 << 20

// readBody reads an n-byte frame body into buf, reusing its capacity. The
// length is only what the peer declared: room for more than frameStep of
// it is made as the bytes arrive, so a peer that declares 64 MB and sends
// nothing holds one step, not 64 MB.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		end := len(buf) + min(n-len(buf), frameStep)
		buf = slices.Grow(buf, end-len(buf))
		if _, err := io.ReadFull(r, buf[len(buf):end]); err != nil {
			return nil, err
		}
		buf = buf[:end]
	}
	return buf, nil
}

// appendFrameSeq appends one encoded sequenced frame to buf, letting callers
// coalesce several frames into a single write.
func appendFrameSeq(buf []byte, seq uint32, body []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)+4))
	buf = binary.LittleEndian.AppendUint32(buf, seq)
	return append(buf, body...)
}

// readFrameSeq reads one sequenced frame, returning its sequence number and
// its body, read into buf's capacity (see readBody).
func readFrameSeq(r io.Reader, buf []byte) (uint32, []byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 4 {
		return 0, nil, fmt.Errorf("%w: frame shorter than its seq", ErrBadFrame)
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, nil, err
	}
	body, err := readBody(r, buf, int(n-4))
	return binary.LittleEndian.Uint32(hdr[4:]), body, err
}

// encodeRequest serializes a request body (without the frame header).
func encodeRequest(req request) ([]byte, error) {
	if len(req.Key) > MaxKeyLen {
		return nil, fmt.Errorf("%w: key %d bytes", ErrFrameTooBig, len(req.Key))
	}
	if len(req.Value) > MaxValueLen {
		return nil, fmt.Errorf("%w: value %d bytes", ErrFrameTooBig, len(req.Value))
	}
	buf := make([]byte, 0, 1+8+2+len(req.Key)+4+len(req.Value))
	return appendRequest(buf, req), nil
}

// appendRequest appends a request body encoding to buf.
func appendRequest(buf []byte, req request) []byte {
	buf = append(buf, req.Op)
	buf = binary.LittleEndian.AppendUint64(buf, req.Version)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(req.Key)))
	buf = append(buf, req.Key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(req.Value)))
	buf = append(buf, req.Value...)
	return buf
}

// decodeRequestAt parses one request body starting at offset p,
// returning the request and the offset just past it.
func decodeRequestAt(buf []byte, p int) (request, int, error) {
	var req request
	if len(buf) < p+1+8+2 {
		return req, p, fmt.Errorf("%w: short header", ErrBadFrame)
	}
	req.Op = buf[p]
	req.Version = binary.LittleEndian.Uint64(buf[p+1:])
	klen := int(binary.LittleEndian.Uint16(buf[p+9:]))
	p += 11
	if len(buf) < p+klen+4 {
		return req, p, fmt.Errorf("%w: short key", ErrBadFrame)
	}
	req.Key = buf[p : p+klen]
	p += klen
	vlen := int(binary.LittleEndian.Uint32(buf[p:]))
	p += 4
	if len(buf) < p+vlen {
		return req, p, fmt.Errorf("%w: short value", ErrBadFrame)
	}
	if vlen > 0 {
		req.Value = buf[p : p+vlen]
	}
	return req, p + vlen, nil
}

// decodeRequest parses a request body.
func decodeRequest(buf []byte) (request, error) {
	req, _, err := decodeRequestAt(buf, 0)
	return req, err
}

// respHeaderLen is what precedes a response's payload: status u8 |
// payloadLen u32.
const respHeaderLen = 5

// appendResponse appends a response body — header, then payload — to dst.
func appendResponse(dst []byte, status uint8, payload []byte) []byte {
	dst = append(dst, status)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// encodeResponse serializes a response body into a buffer of its own.
func encodeResponse(status uint8, payload []byte) []byte {
	return appendResponse(make([]byte, 0, respHeaderLen+len(payload)), status, payload)
}

// decodeResponse parses a response body.
func decodeResponse(buf []byte) (status uint8, payload []byte, err error) {
	if len(buf) < respHeaderLen {
		return 0, nil, fmt.Errorf("%w: short response", ErrBadFrame)
	}
	status = buf[0]
	n := int(binary.LittleEndian.Uint32(buf[1:]))
	if len(buf) < respHeaderLen+n {
		return 0, nil, fmt.Errorf("%w: short payload", ErrBadFrame)
	}
	return status, buf[respHeaderLen : respHeaderLen+n], nil
}

// RangeEntry is one (key, version) hit returned by OpRange.
type RangeEntry struct {
	Key     []byte
	Version uint64
}

// encodeRangeReply packs a range reply: the applied limit, then one
// keyLen u16 | key | version u64 triple per hit.
func encodeRangeReply(applied int, entries []RangeEntry) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(applied))
	for _, e := range entries {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, e.Version)
	}
	return buf
}

// decodeRangeReply unpacks a range reply.
func decodeRangeReply(buf []byte) ([]RangeEntry, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("%w: short range reply", ErrBadFrame)
	}
	applied := int(binary.LittleEndian.Uint32(buf))
	var out []RangeEntry
	for p := 4; p < len(buf); {
		if p+2 > len(buf) {
			return nil, 0, ErrBadFrame
		}
		klen := int(binary.LittleEndian.Uint16(buf[p:]))
		p += 2
		if p+klen+8 > len(buf) {
			return nil, 0, ErrBadFrame
		}
		e := RangeEntry{Key: append([]byte(nil), buf[p:p+klen]...)}
		p += klen
		e.Version = binary.LittleEndian.Uint64(buf[p:])
		p += 8
		out = append(out, e)
	}
	return out, applied, nil
}

// BatchOp is one sub-op of an OpBatch frame. Only mutations may be
// batched: OpPut, OpPutDedup, OpDel and OpDropVersion.
type BatchOp struct {
	Op      uint8
	Version uint64
	Key     []byte
	Value   []byte
}

// batchable reports whether op may appear inside an OpBatch frame.
func batchable(op uint8) bool {
	switch op {
	case OpPut, OpPutDedup, OpDel, OpDropVersion:
		return true
	}
	return false
}

// encodeBatch packs sub-ops into an OpBatch request body.
func encodeBatch(ops []BatchOp) ([]byte, error) {
	size := 0
	for _, op := range ops {
		if !batchable(op.Op) {
			return nil, fmt.Errorf("%w: op %d not batchable", ErrBadFrame, op.Op)
		}
		if len(op.Key) > MaxKeyLen {
			return nil, fmt.Errorf("%w: key %d bytes", ErrFrameTooBig, len(op.Key))
		}
		if len(op.Value) > MaxValueLen {
			return nil, fmt.Errorf("%w: value %d bytes", ErrFrameTooBig, len(op.Value))
		}
		size += 1 + 8 + 2 + len(op.Key) + 4 + len(op.Value)
	}
	buf := make([]byte, 0, size)
	for _, op := range ops {
		buf = appendRequest(buf, request(op))
	}
	if len(buf) > MaxValueLen {
		return nil, fmt.Errorf("%w: batch %d bytes", ErrFrameTooBig, len(buf))
	}
	return buf, nil
}

// decodeBatch unpacks the sub-ops of an OpBatch request body, verifying
// the declared count.
func decodeBatch(buf []byte, count int) ([]BatchOp, error) {
	if count < 0 || count > len(buf) {
		return nil, fmt.Errorf("%w: batch count %d", ErrBadFrame, count)
	}
	out := make([]BatchOp, 0, count)
	for p := 0; p < len(buf); {
		req, np, err := decodeRequestAt(buf, p)
		if err != nil {
			return nil, err
		}
		out = append(out, BatchOp(req))
		p = np
	}
	if len(out) != count {
		return nil, fmt.Errorf("%w: batch declared %d sub-ops, carried %d", ErrBadFrame, count, len(out))
	}
	return out, nil
}

// subStatus is one sub-op outcome in a batch reply.
type subStatus struct {
	status uint8
	msg    []byte
}

// encodeBatchReply packs per-sub-op statuses.
func encodeBatchReply(statuses []subStatus) []byte {
	size := 4
	for _, s := range statuses {
		size += 1 + 2 + len(s.msg)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(statuses)))
	for _, s := range statuses {
		buf = append(buf, s.status)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.msg)))
		buf = append(buf, s.msg...)
	}
	return buf
}

// decodeBatchReply unpacks per-sub-op statuses.
func decodeBatchReply(buf []byte) ([]subStatus, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("%w: short batch reply", ErrBadFrame)
	}
	count := int(binary.LittleEndian.Uint32(buf))
	out := make([]subStatus, 0, count)
	for p := 4; p < len(buf); {
		if p+3 > len(buf) {
			return nil, ErrBadFrame
		}
		st := buf[p]
		mlen := int(binary.LittleEndian.Uint16(buf[p+1:]))
		p += 3
		if p+mlen > len(buf) {
			return nil, ErrBadFrame
		}
		var msg []byte
		if mlen > 0 {
			msg = append([]byte(nil), buf[p:p+mlen]...)
		}
		p += mlen
		out = append(out, subStatus{status: st, msg: msg})
	}
	if len(out) != count {
		return nil, fmt.Errorf("%w: batch reply declared %d, carried %d", ErrBadFrame, count, len(out))
	}
	return out, nil
}
