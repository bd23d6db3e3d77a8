package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"directload/internal/server"
)

// ioTimeout bounds every read and write against the daemon, so a hung
// server fails the run instead of hanging it.
const ioTimeout = 30 * time.Second

// v2conn speaks the native protocol v2 with frames encoded ahead of
// time; internal/server's Client encodes and allocates per call, which
// would put the generator's own cost inside every latency sample.
type v2conn struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte // reply body, reused
}

func dialV2(addr string) (*v2conn, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	// A small buffer: a 20 KB payload is then read straight into buf.
	c := &v2conn{nc: nc, br: bufio.NewReaderSize(nc, 4<<10)}
	// OpHello travels as a v1 frame: len | op | version | keyLen | valLen.
	hello := binary.LittleEndian.AppendUint32(nil, 15)
	hello = appendReqHead(hello, server.OpHello, server.ProtoV2, nil, 0)
	if err := c.send(hello); err != nil {
		nc.Close()
		return nil, err
	}
	var reply [10]byte // len | status | payloadLen | accepted version
	nc.SetReadDeadline(time.Now().Add(ioTimeout))
	if _, err := io.ReadFull(c.br, reply[:]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	if reply[4] != server.StatusOK || reply[9] != server.ProtoV2 {
		nc.Close()
		return nil, fmt.Errorf("hello: server answered status %d version %d", reply[4], reply[9])
	}
	return c, nil
}

func (c *v2conn) close() { c.nc.Close() }

func (c *v2conn) send(p []byte) error {
	c.nc.SetWriteDeadline(time.Now().Add(ioTimeout))
	_, err := c.nc.Write(p)
	return err
}

// sendv writes a frame whose values live in the dataset's pool.
func (c *v2conn) sendv(segs [][]byte, scratch *net.Buffers) error {
	*scratch = append((*scratch)[:0], segs...) // WriteTo consumes its receiver
	c.nc.SetWriteDeadline(time.Now().Add(ioTimeout))
	_, err := scratch.WriteTo(c.nc)
	return err
}

// recv reads one response frame; payload is valid until the next recv.
func (c *v2conn) recv() (seq uint32, status uint8, payload []byte, err error) {
	var hdr [8]byte
	c.nc.SetReadDeadline(time.Now().Add(ioTimeout))
	if _, err = io.ReadFull(c.br, hdr[:]); err != nil {
		return
	}
	n := int(binary.LittleEndian.Uint32(hdr[:])) - 4
	seq = binary.LittleEndian.Uint32(hdr[4:])
	if n < 5 {
		return seq, 0, nil, fmt.Errorf("response frame of %d bytes", n)
	}
	if cap(c.buf) < n {
		c.buf = make([]byte, n+n/4)
	}
	body := c.buf[:n]
	if _, err = io.ReadFull(c.br, body); err != nil {
		return
	}
	if plen := int(binary.LittleEndian.Uint32(body[1:])); plen != n-5 {
		return seq, 0, nil, fmt.Errorf("response payload %d bytes in a %d-byte frame", plen, n)
	}
	return seq, body[0], body[5:], nil
}

// appendReqHead appends a request body up to and including valLen; the
// value bytes follow it.
func appendReqHead(buf []byte, op uint8, version uint64, key []byte, valLen int) []byte {
	buf = append(buf, op)
	buf = binary.LittleEndian.AppendUint64(buf, version)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	return binary.LittleEndian.AppendUint32(buf, uint32(valLen))
}

// appendGet appends one complete v2 GET frame.
func appendGet(buf []byte, seq uint32, key []byte, version uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(4+15+len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, seq)
	return appendReqHead(buf, server.OpGet, version, key, 0)
}

// batchFrame is one OpBatch request as writev segments: small encoded
// headers alternating with value bodies that point into the pool.
type batchFrame struct {
	segs    [][]byte
	entries int
}

// encodeBatch builds the OpBatch frame that writes keys [lo, hi) of
// version v.
func encodeBatch(d *dataset, v, lo, hi int, seq uint32) batchFrame {
	p := d.plan(v)
	const perEntry = 15 + 20 + stampLen
	arena := make([]byte, 0, 8+15+(hi-lo)*perEntry)
	arena = append(arena, 0, 0, 0, 0) // frame length, patched below
	arena = binary.LittleEndian.AppendUint32(arena, seq)
	arena = appendReqHead(arena, server.OpBatch, uint64(hi-lo), nil, 0)
	packedAt := len(arena) - 4
	f := batchFrame{entries: hi - lo}
	start, total := 0, len(arena)
	for k := lo; k < hi; k++ {
		if p.dup(k, v) {
			arena = appendReqHead(arena, server.OpPutDedup, uint64(v), d.keys[k], 0)
			continue
		}
		arena = appendReqHead(arena, server.OpPut, uint64(v), d.keys[k], int(p.vlen[k]))
		arena = d.stamp(arena, k, p.base[k], p.vlen[k])
		body := d.body(k, p.base[k], p.vlen[k])
		f.segs = append(f.segs, arena[start:len(arena):len(arena)], body)
		start = len(arena)
		total += len(body)
	}
	if start < len(arena) {
		f.segs = append(f.segs, arena[start:])
	}
	total += len(arena) - 23 // everything appended after the batch head
	binary.LittleEndian.PutUint32(arena[0:], uint32(total-4))
	binary.LittleEndian.PutUint32(arena[packedAt:], uint32(total-23))
	return f
}

// checkBatchReply verifies that every sub-op of a batch was applied.
func checkBatchReply(status uint8, payload []byte, entries int) error {
	if status != server.StatusOK {
		return fmt.Errorf("batch: status %d: %s", status, payload)
	}
	if len(payload) != 4+3*entries || int(binary.LittleEndian.Uint32(payload)) != entries {
		return fmt.Errorf("batch: reply of %d bytes for %d sub-ops", len(payload), entries)
	}
	for i := 0; i < entries; i++ {
		if payload[4+3*i] != server.StatusOK {
			return fmt.Errorf("batch: sub-op %d status %d", i, payload[4+3*i])
		}
	}
	return nil
}

// readRESP reads one RESP2 reply of the two kinds the benchmark
// provokes: a simple string ('+') or a bulk string ('$'). The returned
// bytes are valid until the next read.
func readRESP(br *bufio.Reader, buf *[]byte) (kind byte, data []byte, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 3 {
		return 0, nil, fmt.Errorf("resp: short line %q", line)
	}
	kind, line = line[0], line[1:len(line)-2]
	if kind != '$' {
		return kind, line, nil
	}
	n, err := strconv.Atoi(string(line))
	if err != nil || n < 0 {
		return kind, nil, fmt.Errorf("resp: bulk length %q", line)
	}
	if cap(*buf) < n+2 {
		*buf = make([]byte, n+2)
	}
	data = (*buf)[:n+2]
	if _, err := io.ReadFull(br, data); err != nil {
		return kind, nil, err
	}
	return kind, data[:n], nil
}
