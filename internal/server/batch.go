package server

import (
	"context"
	"fmt"
)

// Batcher bounds: a flush triggers once either is reached.
const (
	batchMaxOps   = 1024
	batchMaxBytes = 4 << 20
)

// BatchOpError reports one failed sub-op of a flushed batch. Index is
// the op's position in the order it was added since the last Flush
// returned; Err is a *StatusError, so errors.Is against the engine
// sentinels works per sub-op.
type BatchOpError struct {
	Index int
	Op    BatchOp
	Err   error
}

// BatchError is the aggregate error of a flush whose frame succeeded
// but some sub-ops failed. The untouched sub-ops were still applied —
// one bad op does not poison the batch.
type BatchError struct {
	Ops    int // sub-ops in the failed flush
	Failed []BatchOpError
}

// Error summarizes the partial failure.
func (e *BatchError) Error() string {
	return fmt.Sprintf("qindb client: batch: %d/%d sub-ops failed (first: %v)",
		len(e.Failed), e.Ops, e.Failed[0].Err)
}

// Unwrap exposes the first sub-op error for errors.Is/As chains.
func (e *BatchError) Unwrap() error { return e.Failed[0].Err }

// Batcher accumulates mutations and ships them as OpBatch frames — the
// client-side half of turning thousands of round trips into a handful
// of block-sized frames. It is not safe for concurrent use; give each
// goroutine its own Batcher (they may share the Client).
//
// Add calls auto-flush once the batch reaches its op-count or byte
// bound; Flush sends whatever remains. A flush whose frame succeeds but
// whose sub-ops partially fail returns *BatchError naming the failed
// ops; the rest were applied.
type Batcher struct {
	c     *Client
	ops   []BatchOp
	bytes int
}

// Batcher returns an empty batcher.
func (c *Client) Batcher() *Batcher {
	return &Batcher{c: c}
}

// add buffers one sub-op, auto-flushing when a bound trips.
func (b *Batcher) add(ctx context.Context, op BatchOp) error {
	size := 1 + 8 + 2 + len(op.Key) + 4 + len(op.Value)
	if len(b.ops) > 0 && (len(b.ops) >= batchMaxOps || b.bytes+size > batchMaxBytes) {
		if err := b.Flush(ctx); err != nil {
			return err
		}
	}
	b.ops = append(b.ops, op)
	b.bytes += size
	return nil
}

// Put buffers a put (or dedup put) for the next flush.
func (b *Batcher) Put(ctx context.Context, key []byte, version uint64, value []byte, dedup bool) error {
	op := OpPut
	if dedup {
		op = OpPutDedup
	}
	return b.add(ctx, BatchOp{Op: op, Version: version, Key: key, Value: value})
}

// DropVersion buffers a version drop for the next flush.
func (b *Batcher) DropVersion(ctx context.Context, version uint64) error {
	return b.add(ctx, BatchOp{Op: OpDropVersion, Version: version})
}

// Flush ships the buffered sub-ops as one OpBatch frame and clears the
// buffer. It returns nil when every sub-op succeeded, *BatchError when
// the frame landed but sub-ops failed, or the transport error when the
// frame itself did not.
func (b *Batcher) Flush(ctx context.Context) error {
	if len(b.ops) == 0 {
		return nil
	}
	ops := b.ops
	b.ops = nil
	b.bytes = 0
	packed, err := encodeBatch(ops)
	if err != nil {
		return err
	}
	status, payload, err := b.c.do(ctx, request{Op: OpBatch, Version: uint64(len(ops)), Value: packed})
	if err != nil {
		return err
	}
	if err := statusErr(status, payload); err != nil {
		return err
	}
	statuses, err := decodeBatchReply(payload)
	if err != nil {
		return err
	}
	if len(statuses) != len(ops) {
		return fmt.Errorf("%w: batch reply for %d ops answered %d", ErrBadFrame, len(ops), len(statuses))
	}
	var failed []BatchOpError
	for i, st := range statuses {
		if st.status == StatusOK {
			continue
		}
		failed = append(failed, BatchOpError{Index: i, Op: ops[i], Err: statusErr(st.status, st.msg)})
	}
	if len(failed) > 0 {
		return &BatchError{Ops: len(ops), Failed: failed}
	}
	return nil
}
