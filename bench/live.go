package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"directload/internal/resp"
	"directload/internal/server"
)

// Constants frozen after one calibration on the builder's 2-core
// sandbox (README.md tabulates them). A measured phase is a fixed
// number of operations — nominal rate × --seconds — never a fixed
// duration, so that counts (bytes allocated, bytes appended, space used)
// repeat exactly and a faster program is not handed more work.
const (
	// A run is this many daemon lifetimes, each set up afresh and each
	// measuring a third of the operations; the metrics are taken over the
	// three measured phases together, setup_s is the median set-up.
	rounds        = 3
	agingVersions = 12 // full-speed versions after the preload, so lazy GC is cycling
	// The store grows by about half an AOF per version (files of
	// relocated records hover at the GC threshold), and this sandbox
	// serves memory beyond ~3.5 GB resident ten times slower than below.
	// One daemon therefore measures at most 16 versions at full speed,
	// which keeps it under 2.7 GB; a longer phase is more lifetimes.
	publishMaxVersions = 16
	batchEntries       = 64
	respBurst          = 16
	respValueLen       = 128

	publishVersionsPerSec = 2.4    // nominal closed-loop publish speed, versions of 8000 entries
	serveGetsPerSec       = 10000  // nominal closed-loop GET speed, two connections
	respCmdsPerSec        = 100000 // nominal closed-loop RESP speed, two connections
	mixedReadRate         = 2000   // GET/s offered by the open-loop reader (≈ ⅙ of serve)
	mixedWriteRate        = 10000  // entries/s offered by the paced publisher (≈ ¼ of publish)
	mixedMaxDrain         = 5 * time.Second

	// latLimit is the latency limit of lat_ok_share: a request answered
	// later than this after it was sent (in mixed: after it was due) has
	// waited for something other than its own work.
	latLimit = 10 * time.Millisecond
)

// sizing scales a run; the benchmark proper uses fullSize, the smoke
// test a fiftieth of it.
type sizing struct {
	keys     int     // entries per index version
	respKeys int     // keys of resp-small
	seconds  float64 // nominal length of the measured phases together
}

func fullSize(seconds float64) sizing {
	return sizing{keys: keysPerVersion, respKeys: 100000, seconds: seconds}
}

// perRound is a round's share of a run-long operation count.
func perRound(perSec, seconds float64) int { return int(perSec*seconds/rounds + 0.5) }

// workload is one traffic mix against the live daemon.
type workload struct {
	name    string
	warmMB  int // memory cycled through this process before the first spawn: the daemon's peak RSS and a quarter
	plan    func(l *live)
	setup   func(l *live) error
	measure func(l *live) error
}

var workloads = []workload{
	{name: "publish", warmMB: 3072, plan: planPublish, setup: setupAged, measure: measurePublish},
	{name: "serve", warmMB: 1024, plan: planServe, setup: setupPreload, measure: measureServe},
	{name: "mixed", warmMB: 2560, plan: planMixed, setup: setupAged, measure: measureMixed},
	{name: "resp-small", warmMB: 768, plan: planResp, setup: setupResp, measure: measureResp},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundPlan is one round's inputs, generated and encoded before any timer
// starts. Every round has a dataset of its own, drawn from the run's seed
// and the round's number, so a run averages over three shapes.
type roundPlan struct {
	ds       *dataset
	frames   map[int][]batchFrame // publish, mixed: measured versions
	getKeys  [][]int              // serve: connection -> key per GET; mixed: one list
	getReqs  [][]byte             // serve: connection -> encoded GET frames
	respPlan []respStream         // resp-small: connection -> bursts
}

// live is one run of one workload: the plan of every round, the current
// round's plan and daemon, and what the measured phases have produced so
// far.
type live struct {
	sz         sizing
	plans      [rounds]*roundPlan
	*roundPlan // the current round's
	d          *daemon

	attempted int64 // operations of all rounds
	firstV    int   // publish, mixed: first measured version of a round
	lastV     int   // publish, mixed: last measured version of a round

	// What the measured phases produced.
	acked atomic.Int64
	lat   [][]time.Duration // per connection; pooled afterwards
	lag   []time.Duration   // mixed: how late the reader sent each GET
	drops []time.Duration   // DropVersion round trips
}

const (
	getFrameLen = 8 + 15 + 20
	servePinned = keepVersions // serve reads version 4, the newest preloaded
)

// --- native door: publishing ---------------------------------------------

// encodeVersion cuts version v into batches of 64 entries in key order.
func encodeVersion(d *dataset, v int) []batchFrame {
	var out []batchFrame
	for lo := 0; lo < len(d.keys); lo += batchEntries {
		out = append(out, encodeBatch(d, v, lo, min(lo+batchEntries, len(d.keys)), uint32(lo)))
	}
	return out
}

// publishVersion sends one version, one batch outstanding, and returns
// the entries acknowledged. wait, when set, holds batch i back until it
// is due.
func publishVersion(c *v2conn, frames []batchFrame, lat *[]time.Duration, wait func(i int)) (int, error) {
	var scratch net.Buffers
	acked := 0
	for i, f := range frames {
		if wait != nil {
			wait(i)
		}
		start := time.Now()
		if err := c.sendv(f.segs, &scratch); err != nil {
			return acked, err
		}
		_, status, payload, err := c.recv()
		if err == nil {
			err = checkBatchReply(status, payload, f.entries)
		}
		if err != nil {
			return acked, err
		}
		if lat != nil {
			*lat = append(*lat, time.Since(start))
		}
		acked += f.entries
	}
	return acked, nil
}

// retire drops the version that falls out of the keep-4 window once v
// is complete, and returns how long the daemon took to answer.
func (l *live) retire(v int) (time.Duration, error) {
	if v <= keepVersions {
		return 0, nil
	}
	start := time.Now()
	err := l.d.ctl.DropVersionContext(context.Background(), uint64(v-keepVersions))
	return time.Since(start), err
}

// publishRange publishes versions from..to at full speed with a
// retirement after each. All publishing goes over ONE connection with one
// batch outstanding, so that the order of appends repeats exactly. Two
// publishers interleave differently each run, which moves the file in
// which a record lands, flips GC runs in every second run and with them
// alloc_bytes_per_op and space_amp by 5 %. (One publisher still flips in
// about one lifetime in eight: aof.Store.Candidates breaks ties between
// equally empty files by Go's map order.) measured says whether the phase
// is being timed.
func (l *live) publishRange(c *v2conn, from, to int, measured bool) error {
	for v := from; v <= to; v++ {
		frames := l.frames[v]
		if frames == nil {
			frames = encodeVersion(l.ds, v)
		}
		var lat *[]time.Duration
		if measured {
			lat = &l.lat[0]
		}
		n, err := publishVersion(c, frames, lat, nil)
		if measured {
			l.acked.Add(int64(n))
		}
		if err != nil {
			return fmt.Errorf("publish v%d: %w", v, err)
		}
		dt, err := l.retire(v)
		if err != nil {
			return fmt.Errorf("retire after v%d: %w", v, err)
		}
		if measured {
			l.drops = append(l.drops, dt)
		}
	}
	return nil
}

// dialPair opens the two connections of serve and mixed.
func (l *live) dialPair() (conns [2]*v2conn, closeBoth func(), err error) {
	for i := range conns {
		if conns[i], err = dialV2(l.d.addr); err != nil {
			if i == 1 {
				conns[0].close()
			}
			return conns, nil, err
		}
	}
	return conns, func() { conns[0].close(); conns[1].close() }, nil
}

// setupPreload publishes versions 1-4 at full speed.
func setupPreload(l *live) error { return l.setupVersions(keepVersions) }

// setupAged preloads and then publishes the aging versions, so that the
// measured phase starts with lazy GC already cycling.
func setupAged(l *live) error { return l.setupVersions(keepVersions + agingVersions) }

func (l *live) setupVersions(to int) error {
	c, err := dialV2(l.d.addr)
	if err != nil {
		return err
	}
	defer c.close()
	return l.publishRange(c, 1, to, false)
}

// planVersions encodes the versions the round publishes after the aging.
func (l *live) planVersions(versions int) {
	l.firstV = keepVersions + agingVersions + 1
	l.lastV = l.firstV + versions - 1
	l.ds.plan(l.lastV)
	l.frames = map[int][]batchFrame{}
	for v := l.firstV; v <= l.lastV; v++ {
		l.frames[v] = encodeVersion(l.ds, v)
	}
}

func planPublish(l *live) {
	versions := min(max(1, perRound(publishVersionsPerSec, l.sz.seconds)), publishMaxVersions)
	l.planVersions(versions)
	l.attempted += int64(versions * l.sz.keys)
}

func measurePublish(l *live) error {
	c, err := dialV2(l.d.addr)
	if err != nil {
		return err
	}
	defer c.close()
	return l.publishRange(c, l.firstV, l.lastV, true)
}

// --- native door: reading -------------------------------------------------

func planServe(l *live) {
	l.ds.plan(servePinned)
	n := max(32, perRound(serveGetsPerSec, l.sz.seconds)/2) // GETs per connection
	z := newZipf(l.sz.keys, 0.99, l.ds.seed)
	l.getKeys, l.getReqs = make([][]int, 2), make([][]byte, 2)
	for c := range l.getKeys {
		l.getKeys[c] = make([]int, n)
		l.getReqs[c] = make([]byte, 0, n*getFrameLen)
		for i := range l.getKeys[c] {
			k := z.next()
			l.getKeys[c][i] = k
			l.getReqs[c] = appendGet(l.getReqs[c], uint32(i), l.ds.keys[k], servePinned)
		}
	}
	l.attempted += int64(2 * n)
}

func measureServe(l *live) error {
	conns, closeBoth, err := l.dialPair()
	if err != nil {
		return err
	}
	defer closeBoth()
	return both(func(c int) error { return l.serveConn(conns[c], c) })
}

// serveConn sends one connection's GETs, one outstanding.
func (l *live) serveConn(c *v2conn, id int) error {
	reqs := l.getReqs[id]
	for i, key := range l.getKeys[id] {
		start := time.Now()
		if err := c.send(reqs[i*getFrameLen : (i+1)*getFrameLen]); err != nil {
			return err
		}
		seq, status, payload, err := c.recv()
		if err != nil {
			return err
		}
		if seq != uint32(i) || status != server.StatusOK {
			return fmt.Errorf("get %d: seq %d status %d: %s", i, seq, status, payload)
		}
		if err := l.ds.check(payload, key, servePinned, i%fullCheckEvery == 0); err != nil {
			return err
		}
		l.lat[id] = append(l.lat[id], time.Since(start))
		l.acked.Add(1)
	}
	return nil
}

// both runs fn(0) and fn(1) side by side — the benchmark's two
// connections — and returns the first error.
func both(fn func(c int) error) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// --- mixed: open-loop reader beside a paced publisher ----------------------

func planMixed(l *live) {
	versions := max(1, perRound(mixedWriteRate/float64(l.sz.keys), l.sz.seconds))
	l.planVersions(versions)
	// The reader runs for exactly as long as the publisher is scheduled to.
	gets := int(float64(versions*l.sz.keys) / mixedWriteRate * mixedReadRate)
	z := newZipf(l.sz.keys, 0.99, l.ds.seed)
	l.getKeys = [][]int{make([]int, gets)}
	for i := range l.getKeys[0] {
		l.getKeys[0][i] = z.next()
	}
	l.attempted += int64(versions*l.sz.keys + gets)
}

func measureMixed(l *live) error {
	conns, closeBoth, err := l.dialPair()
	if err != nil {
		return err
	}
	defer closeBoth()
	var newest atomic.Uint32 // newest complete version: what readers are served
	newest.Store(uint32(l.firstV - 1))
	keys := l.getKeys[0]
	lat, lag := make([]time.Duration, len(keys)), make([]time.Duration, len(keys))
	var drain time.Duration // last reply after last due time
	start := time.Now()
	err = both(func(c int) error {
		if c == 0 {
			return l.pacedPublisher(conns[0], start, &newest)
		}
		var err error
		drain, err = l.openLoopReader(conns[1], pacer{start: start, rate: mixedReadRate}, keys, &newest, lat, lag)
		return err
	})
	if err != nil {
		return err
	}
	if drain > mixedMaxDrain {
		return fmt.Errorf("mixed: backlog still draining %v after the last GET was due", drain)
	}
	// The latency samples are the reader's GETs, every one of them: those
	// that waited out a retirement and its GC pass are a seventh of the
	// phase and what lat_ok_share counts.
	l.lat[1], l.lag = append(l.lat[1], lat...), append(l.lag, lag...)
	return nil
}

// pacedPublisher offers mixedWriteRate entries/s on one connection: a
// batch is not sent before it is due, and a late one is sent at once.
func (l *live) pacedPublisher(c *v2conn, start time.Time, newest *atomic.Uint32) error {
	p := pacer{start: start, rate: mixedWriteRate / batchEntries}
	sent := 0
	for v := l.firstV; v <= l.lastV; v++ {
		frames := l.frames[v]
		n, err := publishVersion(c, frames, nil, func(i int) { time.Sleep(time.Until(p.due(sent + i))) })
		l.acked.Add(int64(n))
		if err != nil {
			return fmt.Errorf("publish v%d: %w", v, err)
		}
		sent += len(frames)
		newest.Store(uint32(v))
		dt, err := l.retire(v)
		if err != nil {
			return fmt.Errorf("retire after v%d: %w", v, err)
		}
		l.drops = append(l.drops, dt)
	}
	return nil
}

// openLoopReader offers mixedReadRate GET/s whatever the replies do: the
// sender follows the schedule, the receiver times every reply from the
// moment its request was due. It fills lat and lag by request number and
// returns how long after the last due time the last reply came.
func (l *live) openLoopReader(c *v2conn, p pacer, keys []int, newest *atomic.Uint32, lat, lag []time.Duration) (time.Duration, error) {
	asked := make([]atomic.Uint32, len(keys)) // version each GET asked for
	sendErr := make(chan error, 1)
	go func() {
		var buf []byte
		for next := 0; next < len(keys); {
			time.Sleep(time.Until(p.due(next)))
			now := time.Now()
			v := newest.Load()
			buf = buf[:0]
			for end := max(next+1, min(p.dueCount(now), len(keys))); next < end; next++ {
				asked[next].Store(v)
				lag[next] = now.Sub(p.due(next))
				buf = appendGet(buf, uint32(next), l.ds.keys[keys[next]], uint64(v))
			}
			if err := c.send(buf); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	var recvErr error
	var drain time.Duration
	for range keys {
		seq, status, payload, err := c.recv()
		now := time.Now()
		if err == nil && (int(seq) >= len(keys) || status != server.StatusOK) {
			err = fmt.Errorf("get: seq %d status %d: %s", seq, status, payload)
		}
		if err == nil {
			err = l.ds.check(payload, keys[seq], int(asked[seq].Load()), seq%fullCheckEvery == 0)
		}
		if err != nil {
			recvErr = err
			c.close() // unblocks a sender stuck in Write
			break
		}
		lat[seq] = now.Sub(p.due(int(seq)))
		l.acked.Add(1)
		drain = now.Sub(p.due(len(keys) - 1))
	}
	if err := <-sendErr; recvErr == nil {
		recvErr = err
	}
	return drain, recvErr
}

// --- RESP door -----------------------------------------------------------------

// respStream is one connection's pre-encoded command stream.
type respStream struct {
	data []byte
	ends []int    // ends[i]: offset just past burst i
	ops  []respOp // in command order, respBurst per burst
}

// respOp is one command: SET writes the key's seq-th value, GET must
// return it.
type respOp struct {
	set      bool
	key, seq uint32
}

func respKey(k int) []byte { return []byte(fmt.Sprintf("r%019d", k)) }

// respValue is the value the seq-th SET of key k writes (seq 0 is the
// preload): a stamp and pool bytes, 128 B in all.
func (d *dataset) respValue(dst []byte, k int, seq uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(k))
	dst = binary.LittleEndian.AppendUint32(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.seed))
	off := mix64(uint64(k), uint64(seq)) % (poolLen - respValueLen)
	return append(dst, d.pool[off:off+respValueLen-16]...)
}

var (
	cmdSET = []byte("SET")
	cmdGET = []byte("GET")
)

// newRespStream encodes bursts of 16 commands alternating SET and GET
// over uniform keys of [lo, hi), a range no other connection touches, so
// every GET has exactly one right answer: the connection's last SET.
func newRespStream(d *dataset, seed int64, lo, hi, bursts int) respStream {
	rng := rand.New(rand.NewSource(seed))
	last := make([]uint32, hi-lo)
	s := respStream{data: make([]byte, 0, bursts*respBurst*120)}
	var val []byte
	for b := 0; b < bursts; b++ {
		for i := 0; i < respBurst; i += 2 {
			k := rng.Intn(hi - lo)
			last[k]++
			val = d.respValue(val[:0], lo+k, last[k])
			s.data = resp.AppendCommand(s.data, cmdSET, respKey(lo+k), val)
			s.ops = append(s.ops, respOp{set: true, key: uint32(lo + k), seq: last[k]})
			k = rng.Intn(hi - lo)
			s.data = resp.AppendCommand(s.data, cmdGET, respKey(lo+k))
			s.ops = append(s.ops, respOp{key: uint32(lo + k), seq: last[k]})
		}
		s.ends = append(s.ends, len(s.data))
	}
	return s
}

func planResp(l *live) {
	bursts := max(2, perRound(respCmdsPerSec, l.sz.seconds)/respBurst/2) // per connection
	l.attempted += int64(2 * bursts * respBurst)
	half := l.sz.respKeys / 2
	for c := 0; c < 2; c++ {
		l.respPlan = append(l.respPlan, newRespStream(l.ds, l.ds.seed<<8+int64(c), c*half, (c+1)*half, bursts))
	}
}

// setupResp preloads every key with its seq-0 value by pipelined SET,
// two connections, each its own half.
func setupResp(l *live) error {
	half := l.sz.respKeys / 2
	return both(func(c int) error { return l.respPreload(c*half, (c+1)*half) })
}

func (l *live) respPreload(lo, hi int) error {
	nc, err := net.DialTimeout("tcp", l.d.respAddr, ioTimeout)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var buf, val, scratch []byte
	const pipeline = 256
	for ; lo < hi; lo += pipeline {
		end := min(lo+pipeline, hi)
		buf = buf[:0]
		for k := lo; k < end; k++ {
			val = l.ds.respValue(val[:0], k, 0)
			buf = resp.AppendCommand(buf, cmdSET, respKey(k), val)
		}
		nc.SetDeadline(time.Now().Add(ioTimeout))
		if _, err := nc.Write(buf); err != nil {
			return err
		}
		for k := lo; k < end; k++ {
			kind, data, err := readRESP(br, &scratch)
			if err != nil {
				return err
			}
			if kind != '+' {
				return fmt.Errorf("resp preload: SET answered %c%s", kind, data)
			}
		}
	}
	return nil
}

func measureResp(l *live) error { return both(l.respConn) }

// respConn replays one connection's bursts, one burst outstanding.
func (l *live) respConn(id int) error {
	nc, err := net.DialTimeout("tcp", l.d.respAddr, ioTimeout)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 16<<10)
	s := l.respPlan[id]
	var scratch, want []byte
	begin := 0
	for b, end := range s.ends {
		start := time.Now()
		nc.SetDeadline(start.Add(ioTimeout))
		if _, err := nc.Write(s.data[begin:end]); err != nil {
			return err
		}
		begin = end
		for i, op := range s.ops[b*respBurst : (b+1)*respBurst] {
			kind, data, err := readRESP(br, &scratch)
			if err != nil {
				return err
			}
			if op.set {
				if kind != '+' {
					return fmt.Errorf("resp: SET answered %c%s", kind, data)
				}
				continue
			}
			want = l.ds.respValue(want[:0], int(op.key), op.seq)
			n := 16 // the stamp; every 16th GET is compared whole
			if (b*respBurst+i)/2%fullCheckEvery == 0 {
				n = respValueLen
			}
			if kind != '$' || len(data) != respValueLen || !bytes.Equal(data[:n], want[:n]) {
				return fmt.Errorf("resp: GET key %d: want the value of SET #%d, got %c and %d bytes", op.key, op.seq, kind, len(data))
			}
		}
		l.lat[id] = append(l.lat[id], time.Since(start))
		l.acked.Add(respBurst)
	}
	return nil
}
