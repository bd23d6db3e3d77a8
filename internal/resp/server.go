package resp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"

	"directload/internal/aof"
	"directload/internal/core"
	"directload/internal/metrics"
	"directload/internal/server"
)

// Server is the RESP front door: Redis commands executed against a
// shared server.Backend, commands on one connection strictly in order
// (pipelined bursts are parsed ahead and replies coalesce into one write,
// so in-order does not mean one round trip per command). Its
// server.Door owns the listener and the connections; the Server brings
// only the per-connection handler.
type Server struct {
	*server.Door
	node string
}

// New builds a RESP listener over an execution backend — typically the
// same Backend the native binary listener serves, which is what makes
// the two protocols one system rather than two stores.
func New(b *server.Backend) *Server {
	s := &Server{node: "qindb"}
	s.Door = server.NewDoor(b, s.handle)
	return s
}

// SetNode names this node in INFO's Server section (default "qindb").
func (s *Server) SetNode(name string) {
	if name != "" {
		s.node = name
	}
}

// queuedCmd is one command buffered between MULTI and EXEC.
type queuedCmd struct {
	name string
	args [][]byte
}

// conn is the per-connection state: the parser, the reply encoder, the
// SELECTed engine version and the MULTI queue.
type conn struct {
	srv *Server
	nc  net.Conn
	r   *Reader
	w   *Writer

	// scratch is where GET and MGET values land on their way to the reply
	// writer, which copies them: one buffer, reused from command to
	// command.
	scratch []byte

	version uint64 // engine version commands address (SELECT; default 1)
	multi   bool
	aborted bool // a queue-time error poisons the transaction
	queue   []queuedCmd
	closing bool // QUIT: flush the +OK, then drop the connection
}

// VersionForDB maps a Redis database index onto the engine data version
// RESP commands address: index n → version n+1, so the default database
// 0 lands on the repo's conventional first version 1.
func VersionForDB(index int) uint64 {
	return uint64(index) + 1
}

// handle serves one connection until EOF, QUIT, or a protocol error.
func (s *Server) handle(nc net.Conn) {
	c := &conn{srv: s, nc: nc, r: NewReader(nc), w: NewWriter(nc), version: VersionForDB(0)}
	ctx := context.Background()
	protoErr := func(err error) {
		if errors.Is(err, ErrProtocol) {
			// Tell the client why before abandoning the stream.
			c.w.WriteError(ClassErr, err.Error())
			c.w.Flush()
		}
	}
	for {
		args, err := c.r.ReadCommand()
		if err != nil {
			protoErr(err)
			return
		}
		if len(args) == 0 {
			continue // blank inline line
		}
		if !c.multi && isPlainGet(args) {
			c.get(ctx, args[1])
		} else {
			c.dispatch(ctx, args)
		}
		// Flush only once the pipeline drains: a burst of N commands
		// answers with one write, not N.
		if c.r.Buffered() == 0 {
			if err := c.w.Flush(); err != nil {
				return
			}
			if c.closing {
				return
			}
		}
	}
}

// isPlainGet reports whether args is a well-formed GET, which runs without
// the command-name lookup dispatch makes.
func isPlainGet(args [][]byte) bool {
	return len(args) == 2 && len(args[0]) == 3 &&
		(args[0][0] == 'G' || args[0][0] == 'g') &&
		(args[0][1] == 'E' || args[0][1] == 'e') &&
		(args[0][2] == 'T' || args[0][2] == 't')
}

// keepScratch is what a connection holds on to of a scratch buffer between
// commands: all of it, or nothing when it has grown past aof.KeepBuffer.
func keepScratch(buf []byte) []byte {
	if cap(buf) > aof.KeepBuffer {
		return nil
	}
	return buf
}

// get runs one GET through the connection's scratch buffer and writes
// its reply.
func (c *conn) get(ctx context.Context, key []byte) {
	val, err := c.srv.Backend().GetAppend(ctx, c.scratch[:0], key, c.version)
	c.writeGetReply(val, err)
	c.scratch = keepScratch(val)
}

// commandNames is every command the server knows, upper-case.
var commandNames = [...]string{
	"GET", "SET", "DEL", "MGET", "MSET", "EXISTS", "PING", "ECHO", "SELECT",
	"INFO", "DBSIZE", "COMMAND", "MULTI", "EXEC", "DISCARD", "QUIT",
}

// commandName resolves a command name case-insensitively to its entry in
// commandNames; an unknown one comes back upper-cased for the error reply.
func commandName(arg []byte) string {
	for _, name := range commandNames {
		if bytes.EqualFold(arg, []byte(name)) {
			return name
		}
	}
	return strings.ToUpper(string(arg))
}

// dispatch routes one command, honoring MULTI queueing.
func (c *conn) dispatch(ctx context.Context, args [][]byte) {
	name := commandName(args[0])
	if c.multi {
		switch name {
		case "MULTI":
			c.w.WriteError(ClassErr, "MULTI calls can not be nested")
		case "EXEC":
			c.exec(ctx)
		case "DISCARD":
			c.resetMulti()
			c.w.WriteSimple("OK")
		case "QUIT":
			c.w.WriteSimple("OK")
			c.closing = true
		default:
			if err := validateQueued(name, args); err != nil {
				c.aborted = true
				c.w.WriteError(ClassErr, err.Error())
				return
			}
			// The Reader reuses args' bytes for the next command.
			owned := make([][]byte, len(args))
			for i, a := range args {
				owned[i] = bytes.Clone(a)
			}
			c.queue = append(c.queue, queuedCmd{name: name, args: owned})
			c.w.WriteSimple("QUEUED")
		}
		return
	}
	switch name {
	case "MULTI":
		c.multi = true
		c.w.WriteSimple("OK")
	case "EXEC":
		c.w.WriteError(ClassErr, "EXEC without MULTI")
	case "DISCARD":
		c.w.WriteError(ClassErr, "DISCARD without MULTI")
	case "QUIT":
		c.w.WriteSimple("OK")
		c.closing = true
	default:
		c.run(ctx, name, args)
	}
}

// resetMulti leaves transaction mode and drops the queue.
func (c *conn) resetMulti() {
	c.multi = false
	c.aborted = false
	c.queue = nil
}

// wrongArity is the canonical Redis arity complaint.
func wrongArity(name string) error {
	return fmt.Errorf("wrong number of arguments for '%s' command", strings.ToLower(name))
}

// validateQueued vets one command at MULTI queue time. Everything that
// can be rejected without touching the engine is rejected here, which
// is what makes a failing EXEC atomic: a transaction with any invalid
// command aborts as a whole before a single sub-op reaches the engine.
func validateQueued(name string, args [][]byte) error {
	switch name {
	case "GET", "SET", "DEL", "MGET", "MSET", "EXISTS", "PING", "ECHO", "INFO", "DBSIZE", "COMMAND":
		return validateArity(name, args)
	case "SELECT":
		return errors.New("SELECT inside MULTI is not supported")
	}
	return fmt.Errorf("unknown command '%s'", strings.ToLower(name))
}

// validateArity vets argument counts, key sizes and, for a mutation, the
// empty key.
func validateArity(name string, args [][]byte) error {
	switch name {
	case "GET", "ECHO", "SELECT":
		if len(args) != 2 {
			return wrongArity(name)
		}
	case "SET":
		if len(args) != 3 {
			return wrongArity(name)
		}
	case "DEL", "MGET", "EXISTS":
		if len(args) < 2 {
			return wrongArity(name)
		}
	case "MSET":
		if len(args) < 3 || len(args)%2 != 1 {
			return wrongArity(name)
		}
	case "PING", "INFO":
		if len(args) > 2 {
			return wrongArity(name)
		}
	case "DBSIZE":
		if len(args) != 1 {
			return wrongArity(name)
		}
	}
	// The keys: every argument, every other one for SET and MSET, none
	// for ECHO and PING.
	step := 1
	switch name {
	case "ECHO", "PING":
		return nil
	case "SET", "MSET":
		step = 2
	}
	for i := 1; i < len(args); i += step {
		if len(args[i]) > server.MaxKeyLen {
			return fmt.Errorf("key exceeds %d bytes", server.MaxKeyLen)
		}
		if len(args[i]) == 0 && (name == "SET" || name == "MSET" || name == "DEL") {
			return core.ErrEmptyKey // the engine's own refusal, reply text and all
		}
	}
	return nil
}

// run executes one non-transactional command and writes its reply.
func (c *conn) run(ctx context.Context, name string, args [][]byte) {
	if err := validateArity(name, args); err != nil {
		c.w.WriteError(ClassErr, err.Error())
		return
	}
	b := c.srv.Backend()
	switch name {
	case "PING":
		if len(args) == 2 {
			c.w.WriteBulk(args[1])
			return
		}
		b.Ping(ctx)
		c.w.WriteSimple("PONG")
	case "ECHO":
		c.w.WriteBulk(args[1])
	case "GET":
		c.get(ctx, args[1])
	case "SET":
		if err := b.Put(ctx, args[1], c.version, args[2], false); err != nil {
			c.w.WriteError(classify(err), err.Error())
			return
		}
		c.w.WriteSimple("OK")
	case "DEL":
		removed := 0
		for _, key := range args[1:] {
			err := b.Del(ctx, key, c.version)
			switch {
			case err == nil:
				removed++
			case errors.Is(err, core.ErrNotFound), errors.Is(err, core.ErrDeleted):
				// Absent keys are not an error for DEL.
			default:
				c.w.WriteError(classify(err), err.Error())
				return
			}
		}
		c.w.WriteInt(int64(removed))
	case "EXISTS":
		n := 0
		for _, key := range args[1:] {
			if ok, _ := b.Has(ctx, key, c.version); ok {
				n++
			}
		}
		c.w.WriteInt(int64(n))
	case "MGET":
		c.w.WriteArrayHeader(len(args) - 1)
		for _, key := range args[1:] {
			val, err := b.GetAppend(ctx, c.scratch[:0], key, c.version)
			c.scratch = keepScratch(val)
			if err != nil {
				c.w.WriteNil()
				continue
			}
			c.writeGetReply(val, nil)
		}
	case "MSET":
		// MSET is atomic in Redis: every check has run, and it commits as
		// one batch, the way EXEC does.
		ops := appendMutation(make([]server.BatchOp, 0, len(args)/2), name, args, c.version)
		c.writeBatchedReply(name, b.Batch(ctx, ops))
	case "SELECT":
		idx, err := strconv.Atoi(string(args[1]))
		if err != nil || idx < 0 {
			c.w.WriteError(ClassErr, "invalid DB index")
			return
		}
		c.version = VersionForDB(idx)
		c.w.WriteSimple("OK")
	case "DBSIZE":
		c.w.WriteInt(int64(b.KeyCount(c.version)))
	case "INFO":
		section := ""
		if len(args) == 2 {
			section = strings.ToLower(string(args[1]))
		}
		c.w.WriteBulk(c.info(ctx, section))
	case "COMMAND":
		// redis-cli probes COMMAND DOCS on connect; an empty array
		// keeps it (and most client libraries) happy.
		c.w.WriteArrayHeader(0)
	default:
		c.w.WriteError(ClassErr, fmt.Sprintf("unknown command '%s'", strings.ToLower(name)))
	}
}

// writeGetReply encodes a Get outcome: missing and deleted keys answer
// the canonical nil bulk — as an empty value always has here — and every
// other failure is an error reply.
func (c *conn) writeGetReply(val []byte, err error) {
	switch {
	case err == nil && len(val) > 0:
		c.w.WriteBulk(val)
	case err == nil:
		c.w.WriteNil()
	case errors.Is(err, core.ErrNotFound), errors.Is(err, core.ErrDeleted):
		c.w.WriteNil()
	default:
		c.w.WriteError(classify(err), err.Error())
	}
}

// exec commits the MULTI queue. All mutations across the queue become
// ONE OpBatch committed through Backend.Batch — the code path and
// server.req.batch metrics of a native batch frame — and each queued
// command's reply is rebuilt from its share of the results. Reads run
// after the commit, so a transaction's reads observe its own writes
// wherever they appear in the queue. Every check ran when a command was
// queued, so a transaction that would be refused never reaches EXEC: it
// aborts whole, before a single sub-op reaches the engine.
func (c *conn) exec(ctx context.Context) {
	queue := c.queue
	aborted := c.aborted
	c.resetMulti()
	if aborted {
		c.w.WriteError(ClassExecAbort, "Transaction discarded because of previous errors.")
		return
	}
	// Queued command i's sub-ops are ops[at[i]:at[i+1]], none for a read.
	at := make([]int, len(queue)+1)
	var ops []server.BatchOp
	for i, cmd := range queue {
		ops = appendMutation(ops, cmd.name, cmd.args, c.version)
		at[i+1] = len(ops)
	}
	var results []server.BatchResult
	if len(ops) > 0 {
		results = c.srv.Backend().Batch(ctx, ops)
	}
	c.w.WriteArrayHeader(len(queue))
	for i, cmd := range queue {
		if at[i] == at[i+1] {
			c.run(ctx, cmd.name, cmd.args)
			continue
		}
		c.writeBatchedReply(cmd.name, results[at[i]:at[i+1]])
	}
}

// appendMutation appends the batch sub-ops of a SET, MSET or DEL to ops;
// any other command appends none.
func appendMutation(ops []server.BatchOp, name string, args [][]byte, version uint64) []server.BatchOp {
	switch name {
	case "SET", "MSET":
		for i := 1; i+1 < len(args); i += 2 {
			ops = append(ops, server.BatchOp{Op: server.OpPut, Version: version, Key: args[i], Value: args[i+1]})
		}
	case "DEL":
		for _, key := range args[1:] {
			ops = append(ops, server.BatchOp{Op: server.OpDel, Version: version, Key: key})
		}
	}
	return ops
}

// writeBatchedReply writes one mutation's reply from its slice of batch
// results.
func (c *conn) writeBatchedReply(name string, results []server.BatchResult) {
	switch name {
	case "SET", "MSET":
		for _, r := range results {
			if r.Err != nil {
				c.w.WriteError(classify(r.Err), r.Err.Error())
				return
			}
		}
		c.w.WriteSimple("OK")
	case "DEL":
		removed := 0
		for _, r := range results {
			switch {
			case r.Err == nil:
				removed++
			case errors.Is(r.Err, core.ErrNotFound), errors.Is(r.Err, core.ErrDeleted):
				// Absent keys are not an error for DEL.
			default:
				c.w.WriteError(classify(r.Err), r.Err.Error())
				return
			}
		}
		c.w.WriteInt(int64(removed))
	}
}

// info renders the INFO reply from the shared metrics registry and the
// engine's stats — the RESP view of the same numbers /metrics serves. An empty section selects every section.
func (c *conn) info(ctx context.Context, section string) []byte {
	b := c.srv.Backend()
	var sb strings.Builder
	want := func(name string) bool { return section == "" || section == name }
	if want("server") {
		sb.WriteString("# Server\r\n")
		fmt.Fprintf(&sb, "node:%s\r\nprotocol:resp2\r\nengine:qindb\r\n\r\n", c.srv.node)
	}
	if want("clients") {
		st, err := b.Stats(ctx)
		if err == nil {
			sb.WriteString("# Clients\r\n")
			fmt.Fprintf(&sb, "connected_clients:%d\r\n\r\n", st.Conns)
		}
	}
	if want("stats") {
		sb.WriteString("# Stats\r\n")
		snap := b.MetricsSnapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			field := strings.ReplaceAll(name, ".", "_")
			switch v := snap[name].(type) {
			case int64:
				fmt.Fprintf(&sb, "%s:%d\r\n", field, v)
			case float64:
				fmt.Fprintf(&sb, "%s:%s\r\n", field, strconv.FormatFloat(v, 'g', -1, 64))
			case metrics.Snapshot:
				fmt.Fprintf(&sb, "%s_count:%d\r\n", field, v.Count)
			}
		}
		sb.WriteString("\r\n")
	}
	if want("keyspace") {
		sb.WriteString("# Keyspace\r\n")
		for _, v := range b.Versions() {
			if v == 0 {
				continue
			}
			fmt.Fprintf(&sb, "db%d:keys=%d,engine_version=%d\r\n", v-1, b.KeyCount(v), v)
		}
	}
	return []byte(sb.String())
}
