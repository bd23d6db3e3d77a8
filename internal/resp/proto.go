// Package resp gives the engine a Redis-compatible front door: a RESP2
// listener that any off-the-shelf Redis client or load generator
// (redis-cli, redis-benchmark, memtier) can speak to, layered over the
// transport-agnostic server.Backend that the native binary wire also
// uses. One engine, one set of server.* metrics, one slowlog — two
// protocols.
//
// # Wire format (RESP2)
//
// A command is an array of bulk strings:
//
//	*2\r\n$3\r\nGET\r\n$3\r\nkey\r\n
//
// or, for hand-typed telnet sessions, an inline command — a single
// whitespace-separated line:
//
//	GET key\r\n
//
// Replies use the five RESP2 types: simple strings (+OK\r\n), errors
// (-ERR message\r\n), integers (:42\r\n), bulk strings
// ($5\r\nhello\r\n, with $-1\r\n as the nil bulk), and arrays.
//
// # Command surface
//
// GET, SET, DEL, MGET, MSET, EXISTS, PING, ECHO, SELECT, INFO, DBSIZE,
// COMMAND, MULTI, EXEC, DISCARD, QUIT. SELECT maps the Redis database
// index onto an engine data version (index n → version n+1, so the
// default database 0 is the conventional version 1). Every check runs
// when a command arrives, and inside MULTI when it is queued, so MSET and
// EXEC commit their mutations as one OpBatch through Backend.Batch, the
// code path and metrics of a native batch frame. See DESIGN.md §12.
//
// The listener and the connections belong to a server.Door, the
// lifecycle the native door shares; this package brings the handler.
//
// # Ownership
//
// Reader.ReadCommand returns a command's arguments as views into
// buffers the Reader reuses: they stay valid until the next ReadCommand.
// Whatever holds an argument longer copies it, as the MULTI queue does;
// the engine copies what it stores.
package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"directload/internal/aof"
)

// Protocol limits. Bulk payloads share the binary wire's value cap so a
// value writable over one front door is writable over the other; the
// arg-count and inline caps bound what a malicious client can make the
// parser allocate.
const (
	// MaxBulkLen caps one bulk-string payload.
	MaxBulkLen = 64 << 20
	// MaxArgs caps the elements of one command array.
	MaxArgs = 1 << 20
	// maxInlineLen caps one inline command line.
	maxInlineLen = 64 << 10
)

// Protocol errors.
var (
	// ErrProtocol reports a malformed RESP frame; the connection is no
	// longer in sync and must be torn down.
	ErrProtocol = errors.New("resp: protocol error")
)

// Reader parses RESP2 commands off one connection. It accepts both
// array-of-bulk-strings framing and inline commands, like a real Redis
// server.
//
// The arguments ReadCommand returns are views into buffers the Reader
// owns and reuses: they stay valid until the next ReadCommand. A holder
// that keeps one longer — the MULTI queue — copies it.
type Reader struct {
	br *bufio.Reader
	// buf holds the current command's bulk payloads (up to 64 KB each)
	// back to back, each followed by its \r\n.
	buf []byte
	// args is the current command's argument list.
	args [][]byte
	// line gathers a line longer than br's buffer.
	line []byte
}

// NewReader wraps r for command parsing.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReader(r)}
}

// Buffered reports the bytes already read off the wire but not yet
// parsed — the server's cue to keep executing before flushing replies,
// which is what makes pipelined clients fast.
func (r *Reader) Buffered() int {
	return r.br.Buffered()
}

// errLineTooLong refuses a line over maxInlineLen.
var errLineTooLong = fmt.Errorf("%w: line exceeds %d bytes", ErrProtocol, maxInlineLen)

// readLine reads one \r\n-terminated line of at most maxInlineLen bytes,
// excluding the terminator. Bare \n is rejected: RESP lines always end
// \r\n. The line is valid until the next read.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Longer than br's buffer: gather the pieces.
		r.line = append(r.line[:0], line...)
		for err == bufio.ErrBufferFull && len(r.line) <= maxInlineLen+2 {
			line, err = r.br.ReadSlice('\n')
			r.line = append(r.line, line...)
		}
		line = r.line
	}
	if err != nil && err != bufio.ErrBufferFull {
		return nil, err
	}
	if err != nil || len(line) > maxInlineLen+2 {
		return nil, errLineTooLong
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line not \\r\\n terminated", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

// ReadCommand parses one command, returning its arguments (the command
// name is args[0]), valid until the next ReadCommand. An empty inline
// line returns (nil, nil); callers skip it, as Redis does.
// Protocol-level corruption returns an error wrapping ErrProtocol, after
// which the stream must be abandoned.
func (r *Reader) ReadCommand() ([][]byte, error) {
	clear(r.args) // let a large bulk of the last command go
	r.args = r.args[:0]
	if cap(r.buf) > aof.KeepBuffer {
		r.buf = nil
	}
	r.buf = r.buf[:0]
	first, err := r.br.Peek(1)
	if err != nil {
		return nil, err
	}
	if first[0] != '*' {
		return r.readInline()
	}
	header, err := r.readLine()
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(string(header[1:]))
	if err != nil {
		return nil, fmt.Errorf("%w: bad array header %q", ErrProtocol, header)
	}
	if n < 0 || n > MaxArgs {
		return nil, fmt.Errorf("%w: array of %d elements", ErrProtocol, n)
	}
	// args grows as arguments arrive, not from the declared count: a bare
	// "*1048576" costs nothing until its elements come.
	for i := 0; i < n; i++ {
		arg, err := r.readBulk()
		if err != nil {
			return nil, err
		}
		r.args = append(r.args, arg)
	}
	return r.args, nil
}

// readBulk parses one $len\r\n<payload>\r\n bulk string. A payload of up
// to 64 KB lands in r.buf; the returned slice is capped at its length,
// so appending to it cannot overwrite the next argument.
func (r *Reader) readBulk() ([]byte, error) {
	header, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if len(header) < 2 || header[0] != '$' {
		return nil, fmt.Errorf("%w: expected bulk string, got %q", ErrProtocol, header)
	}
	n, err := strconv.Atoi(string(header[1:]))
	if err != nil || n < 0 || n > MaxBulkLen {
		return nil, fmt.Errorf("%w: bad bulk length %q", ErrProtocol, header)
	}
	var buf []byte
	if n+2 <= 64<<10 {
		// A grown r.buf leaves the earlier arguments in the old array,
		// which they keep alive until the next command.
		start := len(r.buf)
		r.buf = slices.Grow(r.buf, n+2)[:start+n+2]
		buf = r.buf[start:]
		if _, err := io.ReadFull(r.br, buf); err != nil {
			return nil, err
		}
	} else {
		// Large declared lengths grow with the bytes actually received
		// rather than allocating up front, so a client declaring a
		// 64 MB bulk and sending nothing cannot make the server
		// allocate 64 MB.
		var payload bytes.Buffer
		payload.Grow(64 << 10)
		if _, err := io.CopyN(&payload, r.br, int64(n+2)); err != nil {
			return nil, err
		}
		buf = payload.Bytes()
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, fmt.Errorf("%w: bulk payload not \\r\\n terminated", ErrProtocol)
	}
	return buf[:n:n], nil
}

// readInline parses one whitespace-separated inline command line. The
// arguments are views into the line.
func (r *Reader) readInline() ([][]byte, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	fields := bytes.Fields(line)
	if len(fields) == 0 {
		return nil, nil
	}
	return fields, nil
}

// AppendCommand appends the canonical RESP2 encoding of a command — an
// array of bulk strings — to buf. Inline commands re-encode through
// this form, which is the canonical-re-encode property the fuzz target
// checks.
func AppendCommand(buf []byte, args ...[]byte) []byte {
	buf = append(buf, '*')
	buf = strconv.AppendInt(buf, int64(len(args)), 10)
	buf = append(buf, '\r', '\n')
	for _, a := range args {
		buf = append(buf, '$')
		buf = strconv.AppendInt(buf, int64(len(a)), 10)
		buf = append(buf, '\r', '\n')
		buf = append(buf, a...)
		buf = append(buf, '\r', '\n')
	}
	return buf
}

// Writer encodes RESP2 replies onto one connection. Replies accumulate
// in a buffer; the serving loop flushes once no further commands are
// buffered, so a pipelined burst costs one syscall, not one per reply.
type Writer struct {
	bw  *bufio.Writer
	num [20]byte // scratch for the decimal in a $n, :n or *n header
}

// NewWriter wraps w for reply encoding.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// WriteSimple writes a simple string reply (+s).
func (w *Writer) WriteSimple(s string) error {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteError writes an error reply (-CLASS msg). Newlines in msg are
// flattened: an error reply is always exactly one line.
func (w *Writer) WriteError(class, msg string) error {
	w.bw.WriteByte('-')
	w.bw.WriteString(class)
	if msg != "" {
		w.bw.WriteByte(' ')
		for i := 0; i < len(msg); i++ {
			c := msg[i]
			if c == '\r' || c == '\n' {
				c = ' '
			}
			w.bw.WriteByte(c)
		}
	}
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteInt writes an integer reply (:n).
func (w *Writer) WriteInt(n int64) error {
	w.bw.WriteByte(':')
	w.bw.Write(strconv.AppendInt(w.num[:0], n, 10))
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteBulk writes a bulk string reply; a nil slice writes the nil bulk
// ($-1), the canonical "no such key" reply.
func (w *Writer) WriteBulk(b []byte) error {
	if b == nil {
		return w.WriteNil()
	}
	w.bw.WriteByte('$')
	w.bw.Write(strconv.AppendInt(w.num[:0], int64(len(b)), 10))
	w.bw.WriteString("\r\n")
	w.bw.Write(b)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// WriteNil writes the nil bulk string ($-1).
func (w *Writer) WriteNil() error {
	_, err := w.bw.WriteString("$-1\r\n")
	return err
}

// WriteArrayHeader opens an array reply of n elements; the caller
// writes the elements next. n < 0 writes the nil array (*-1).
func (w *Writer) WriteArrayHeader(n int) error {
	w.bw.WriteByte('*')
	w.bw.Write(strconv.AppendInt(w.num[:0], int64(n), 10))
	_, err := w.bw.WriteString("\r\n")
	return err
}

// Flush pushes buffered replies onto the wire.
func (w *Writer) Flush() error {
	return w.bw.Flush()
}
