package server

import (
	"errors"
	"net"
	"sync"
)

// Door is one front door's connection lifecycle over a Backend: the
// accept loop, the set of open connections, Close, and the
// server.conns.active count that every door shares. A door brings only
// its per-connection handler; Server (the native wire) and resp.Server
// are each a Door with their own.
type Door struct {
	backend *Backend
	handle  func(net.Conn)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool
	closed bool
}

// NewDoor builds a door over b that runs handle on a goroutine of its own
// for every accepted connection, and closes the connection when handle
// returns.
func NewDoor(b *Backend, handle func(net.Conn)) *Door {
	return &Door{backend: b, handle: handle, conns: make(map[net.Conn]bool)}
}

// Backend returns the door's execution backend, shared with any other
// doors.
func (d *Door) Backend() *Backend {
	return d.backend
}

// Serve accepts connections on ln until Close. It returns nil after a
// clean shutdown.
func (d *Door) Serve(ln net.Listener) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return errors.New("server: closed")
	}
	d.ln = ln
	d.mu.Unlock()
	for {
		conn, err := ln.Accept()
		d.mu.Lock()
		closed := d.closed
		if err == nil && !closed {
			d.conns[conn] = true
		}
		d.mu.Unlock()
		if closed {
			if err == nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			return err
		}
		go d.serveConn(conn)
	}
}

// serveConn runs the handler on one connection, which counts in
// server.conns.active until it is closed.
func (d *Door) serveConn(conn net.Conn) {
	d.backend.met.conns.Add(1)
	d.handle(conn)
	d.mu.Lock()
	delete(d.conns, conn)
	d.mu.Unlock()
	conn.Close()
	d.backend.met.conns.Add(-1)
}

// ListenAndServe listens on addr ("host:port", port 0 for ephemeral) and
// serves until Close.
func (d *Door) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return d.Serve(ln)
}

// Addr returns the listener address (nil before Serve).
func (d *Door) Addr() net.Addr {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ln == nil {
		return nil
	}
	return d.ln.Addr()
}

// Close stops accepting and tears down open connections. A second Close
// does nothing.
func (d *Door) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	ln := d.ln
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}
