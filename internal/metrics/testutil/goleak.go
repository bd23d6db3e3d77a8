// Package testutil holds test-only helpers shared across the repo's
// suites. The centerpiece is CheckGoroutines, a hand-rolled goroutine
// leak detector: snapshot the goroutines alive when a test starts,
// and fail it if new ones are still running when it ends: it proves
// the shutdown paths actually run.
package testutil

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// TB is the subset of testing.TB the checker needs; taking the
// interface keeps the package importable from non-test code paths and
// lets the checker test itself with a fake.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
	Logf(format string, args ...any)
}

// defaultAllow matches goroutines that are infrastructure, not leaks:
// the runtime's own workers and the test framework's.
var defaultAllow = []string{
	"testing.(*T).Run",        // the test runner itself
	"testing.(*M).",           // test main
	"testing.runTests",        // top-level driver
	"runtime.goexit",          // exited but not yet reaped
	"runtime/pprof",           // profile writers
	"runtime.ReadTrace",       // execution tracer drain
	"signal.loop",             // os/signal watcher, started once per process
	"runtime.ensureSigM",      // its starter
	"net/http.(*persistConn)", // keep-alive conns owned by the default transport
	"net/http.(*Transport).dialConnFor",
	"internal/poll.runtime_pollWait", // netpoll parkers unwinding
}

// Option adjusts one CheckGoroutines call.
type Option func(*config)

type config struct {
	allow    []string
	deadline time.Duration
}

// Allow ignores goroutines whose stack contains any of the given
// substrings — for components that are process-lifetime by design.
func Allow(substrings ...string) Option {
	return func(c *config) { c.allow = append(c.allow, substrings...) }
}

// Deadline bounds how long the checker waits for stragglers to
// unwind before declaring them leaked (default 2s).
func Deadline(d time.Duration) Option {
	return func(c *config) { c.deadline = d }
}

// CheckGoroutines snapshots the current goroutines and registers a
// cleanup that fails the test if goroutines not in the snapshot (and
// not allowlisted) are still alive at test end. Goroutines need time
// to unwind after a Close/Stop call returns, so the cleanup retries
// until the deadline before reporting.
//
// Call it first thing in the test:
//
//	func TestServe(t *testing.T) {
//		testutil.CheckGoroutines(t)
//		...
//	}
func CheckGoroutines(t TB, opts ...Option) {
	t.Helper()
	cfg := &config{deadline: 2 * time.Second}
	for _, o := range opts {
		o(cfg)
	}
	cfg.allow = append(cfg.allow, defaultAllow...)

	before := goroutineSet(cfg.allow)
	t.Cleanup(func() {
		var leaked []string
		for start := time.Now(); ; {
			leaked = leaked[:0]
			for id, stack := range goroutineSet(cfg.allow) {
				if _, ok := before[id]; !ok {
					leaked = append(leaked, stack)
				}
			}
			if len(leaked) == 0 {
				return
			}
			if time.Since(start) > cfg.deadline {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		sort.Strings(leaked)
		t.Errorf("%d goroutine(s) leaked by this test:\n%s",
			len(leaked), strings.Join(leaked, "\n---\n"))
	})
}

// goroutineSet captures the stacks of all live goroutines, keyed by
// goroutine id, with allowlisted and checker-internal ones removed.
func goroutineSet(allow []string) map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if !strings.HasPrefix(header, "goroutine ") {
			continue
		}
		id := strings.Fields(header)[1]
		if strings.Contains(g, "testutil.goroutineSet") {
			continue // the checker's own goroutine
		}
		skip := false
		for _, a := range allow {
			if strings.Contains(g, a) {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		out[id] = fmt.Sprintf("goroutine %s: %s", id, firstFrames(g, 4))
	}
	return out
}

// firstFrames renders the top frames of one goroutine dump compactly.
func firstFrames(g string, n int) string {
	lines := strings.Split(g, "\n")
	if len(lines) > 2*n+1 {
		lines = append(lines[:2*n+1], "\t...")
	}
	return strings.Join(lines, "\n")
}
