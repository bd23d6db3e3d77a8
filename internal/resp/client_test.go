package resp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"directload/internal/core"
)

// Reply is one decoded RESP2 reply. Type is the wire type byte
// ('+', '-', ':', '$', '*'); exactly one of the payload fields is
// meaningful for each type. A nil bulk decodes as Type '$' with a nil
// Bulk; an error reply decodes into Err (a *ReplyError, so errors.Is
// maps it back onto the engine sentinels).
type Reply struct {
	Type  byte
	Str   string  // '+'
	Int   int64   // ':'
	Bulk  []byte  // '$' (nil for the nil bulk)
	Array []Reply // '*' (nil for the nil array)
	Err   error   // '-'
}

// IsNil reports whether the reply is the nil bulk or nil array.
func (r Reply) IsNil() bool {
	switch r.Type {
	case '$':
		return r.Bulk == nil
	case '*':
		return r.Array == nil
	}
	return false
}

// Client is a minimal RESP2 client: enough to exercise the front door
// from this package's tests and interop checks without an external
// Redis library. Do issues one round trip; Send/Flush/Receive pipeline.
// Not safe for concurrent use.
type Client struct {
	nc net.Conn
	bw *bufio.Writer
	br *bufio.Reader
}

// Dial connects to a RESP server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{nc: nc, bw: bufio.NewWriter(nc), br: bufio.NewReader(nc)}, nil
}

// Close tears down the connection.
func (c *Client) Close() error {
	return c.nc.Close()
}

// Send queues one command without flushing — the pipelining half of the
// API. Pair with Flush and one Receive per Send.
func (c *Client) Send(args ...[]byte) error {
	_, err := c.bw.Write(AppendCommand(nil, args...))
	return err
}

// SendStrings is Send for string arguments.
func (c *Client) SendStrings(args ...string) error {
	byteArgs := make([][]byte, len(args))
	for i, a := range args {
		byteArgs[i] = []byte(a)
	}
	return c.Send(byteArgs...)
}

// Flush pushes queued commands onto the wire.
func (c *Client) Flush() error {
	return c.bw.Flush()
}

// Receive decodes the next reply. An error reply decodes successfully
// into Reply.Err; the error return reports transport or protocol
// failures only.
func (c *Client) Receive() (Reply, error) {
	return c.readReply()
}

// Do issues one command and waits for its reply.
func (c *Client) Do(args ...string) (Reply, error) {
	if err := c.SendStrings(args...); err != nil {
		return Reply{}, err
	}
	if err := c.Flush(); err != nil {
		return Reply{}, err
	}
	return c.Receive()
}

// readReplyLine reads one \r\n-terminated reply line.
func (c *Client) readReplyLine() ([]byte, error) {
	line, err := c.br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: reply line not \\r\\n terminated", ErrProtocol)
	}
	return line[:len(line)-2], nil
}

func (c *Client) readReply() (Reply, error) {
	line, err := c.readReplyLine()
	if err != nil {
		return Reply{}, err
	}
	if len(line) == 0 {
		return Reply{}, fmt.Errorf("%w: empty reply line", ErrProtocol)
	}
	switch line[0] {
	case '+':
		return Reply{Type: '+', Str: string(line[1:])}, nil
	case '-':
		return Reply{Type: '-', Err: parseErrorLine(string(line[1:]))}, nil
	case ':':
		n, err := strconv.ParseInt(string(line[1:]), 10, 64)
		if err != nil {
			return Reply{}, fmt.Errorf("%w: bad integer reply %q", ErrProtocol, line)
		}
		return Reply{Type: ':', Int: n}, nil
	case '$':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil || n < -1 || n > MaxBulkLen {
			return Reply{}, fmt.Errorf("%w: bad bulk header %q", ErrProtocol, line)
		}
		if n == -1 {
			return Reply{Type: '$'}, nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(c.br, buf); err != nil {
			return Reply{}, err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return Reply{}, fmt.Errorf("%w: bulk payload not \\r\\n terminated", ErrProtocol)
		}
		return Reply{Type: '$', Bulk: buf[:n]}, nil
	case '*':
		n, err := strconv.Atoi(string(line[1:]))
		if err != nil || n < -1 || n > MaxArgs {
			return Reply{}, fmt.Errorf("%w: bad array header %q", ErrProtocol, line)
		}
		if n == -1 {
			return Reply{Type: '*'}, nil
		}
		elems := make([]Reply, n)
		for i := range elems {
			elems[i], err = c.readReply()
			if err != nil {
				return Reply{}, err
			}
		}
		return Reply{Type: '*', Array: elems}, nil
	}
	return Reply{}, fmt.Errorf("%w: unknown reply type %q", ErrProtocol, line[0])
}

// ReplyError is a RESP error reply (-CLASS msg) surfaced to a caller.
// It is the RESP twin of server.StatusError: errors.Is maps it onto the
// engine sentinels, so both protocols report errors identically.
type ReplyError struct {
	Class string // ERR, NOTFOUND, DELETED, EXECABORT, ...
	Msg   string
}

// Error renders the reply the way it crossed the wire.
func (e *ReplyError) Error() string {
	if e.Msg == "" {
		return e.Class
	}
	return e.Class + " " + e.Msg
}

// Is maps the error class onto the engine sentinels, making errors.Is
// transparent across the RESP wire.
func (e *ReplyError) Is(target error) bool {
	switch target {
	case core.ErrNotFound:
		return e.Class == ClassNotFound
	case core.ErrDeleted:
		return e.Class == ClassDeleted
	}
	return false
}

// parseErrorLine reconstructs a *ReplyError from the payload of an
// error reply (the bytes after '-').
func parseErrorLine(line string) *ReplyError {
	class, msg, ok := strings.Cut(line, " ")
	if !ok {
		return &ReplyError{Class: line}
	}
	return &ReplyError{Class: class, Msg: msg}
}
