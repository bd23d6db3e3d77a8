package server

import (
	"context"
	"errors"
	"sync"
)

// Pipeline issues requests without waiting for their responses, keeping
// many operations in flight across the client's connection pool. Each
// method returns immediately with a Future; waiting on the future
// yields that operation's outcome. The requests genuinely share the
// wire: the server completes them concurrently and out of order.
//
// Pipelined operations may execute in any order — a caller that needs
// op B to observe op A must wait on A's future before issuing B.
// Backpressure comes from the connection's max-in-flight bound: once
// the window is full, issuing another operation blocks until responses
// drain.
type Pipeline struct {
	c *Client
}

// Pipeline returns an asynchronous view of the client. The pipeline
// shares the client's connections; it needs no separate lifecycle.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Future is one in-flight operation's pending outcome. The request is
// already queued for the wire when the Future is returned; the first
// Err/Value call collects the response. Futures are safe for concurrent
// waiters.
type Future struct {
	once    sync.Once
	wait    func(f *Future) // collects the outcome; nil when pre-resolved
	payload []byte
	err     error
}

func (f *Future) resolve() {
	f.once.Do(func() {
		if f.wait != nil {
			f.wait(f)
			f.wait = nil
		}
	})
}

// Err blocks until the operation completes and returns its error (nil
// on success). Safe to call multiple times.
func (f *Future) Err() error {
	f.resolve()
	return f.err
}

// Value blocks until the operation completes and returns its payload
// (the value for gets, nil for mutations) and error.
func (f *Future) Value() ([]byte, error) {
	f.resolve()
	return f.payload, f.err
}

// fill interprets one wire outcome into the future's fields.
func (f *Future) fill(status uint8, payload []byte, err error) {
	if err == nil {
		err = statusErr(status, payload)
	}
	if err != nil {
		f.err = err
		return
	}
	f.payload = payload
}

// issue starts one asynchronous request: the frame is queued inline —
// no goroutine per operation — and the response is collected lazily by
// the future.
func (p *Pipeline) issue(ctx context.Context, req request) *Future {
	c := p.c
	body, err := encodeRequest(req)
	if err != nil {
		return &Future{err: err}
	}
	ctx, cancel := c.withTimeout(ctx)
	w, err := c.pick()
	if err != nil {
		cancel()
		return &Future{err: err}
	}
	c.inflight.Add(1)
	pc, err := w.sendV2(ctx, body)
	if err != nil {
		c.inflight.Add(-1)
		cancel()
		return &Future{err: err}
	}
	return &Future{wait: func(f *Future) {
		f.fill(w.awaitV2(ctx, pc))
		c.inflight.Add(-1)
		cancel()
	}}
}

// Put issues an asynchronous put.
func (p *Pipeline) Put(ctx context.Context, key []byte, version uint64, value []byte, dedup bool) *Future {
	op := OpPut
	if dedup {
		op = OpPutDedup
	}
	return p.issue(ctx, request{Op: op, Version: version, Key: key, Value: value})
}

// Get issues an asynchronous get; the value arrives via Future.Value.
func (p *Pipeline) Get(ctx context.Context, key []byte, version uint64) *Future {
	return p.issue(ctx, request{Op: OpGet, Version: version, Key: key})
}

// Del issues an asynchronous delete.
func (p *Pipeline) Del(ctx context.Context, key []byte, version uint64) *Future {
	return p.issue(ctx, request{Op: OpDel, Version: version, Key: key})
}

// DropVersion issues an asynchronous version drop.
func (p *Pipeline) DropVersion(ctx context.Context, version uint64) *Future {
	return p.issue(ctx, request{Op: OpDropVersion, Version: version})
}

// Wait blocks until every given future completes and returns the
// joined errors among them (in argument order), or nil when all
// succeeded.
func Wait(futures ...*Future) error {
	var errs []error
	for _, f := range futures {
		if err := f.Err(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
