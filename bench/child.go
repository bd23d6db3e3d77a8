package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"directload/internal/server"
)

// daemon is one live qindbd child: shipped defaults plus the listen
// addresses, -pprof and a 4 GiB in-memory simulated device.
type daemon struct {
	cmd      *exec.Cmd
	stderr   bytes.Buffer
	addr     string // native v1/v2
	respAddr string
	httpAddr string
	ctl      *server.Client // stats and version retirement
	reap     sync.Once
}

// freeAddrs asks the kernel for n unused loopback ports.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close()
	}
	return addrs, nil
}

// startDaemon spawns qindbd and waits until both doors accept.
func startDaemon(bin string) (*daemon, error) {
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: addrs[0], respAddr: addrs[1], httpAddr: addrs[2]}
	d.cmd = exec.Command(bin, "-addr", d.addr, "-resp-addr", d.respAddr,
		"-metrics-addr", d.httpAddr, "-pprof", "-capacity", strconv.Itoa(4<<30))
	d.cmd.Stderr = &d.stderr
	// The child dies with the benchmark however the benchmark ends: a
	// signal, a panic on another goroutine or os.Exit never reach stop().
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, a := range []string{d.addr, d.respAddr, d.httpAddr} {
		for {
			nc, err := net.DialTimeout("tcp", a, time.Second)
			if err == nil {
				nc.Close()
				break
			}
			if time.Now().After(deadline) {
				d.stop()
				return nil, fmt.Errorf("qindbd not ready on %s: %v\n%s", a, err, d.stderr.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	d.ctl, err = server.Dial(d.addr, server.WithTimeout(ioTimeout))
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop kills the child and waits for it; safe to call more than once.
func (d *daemon) stop() {
	d.reap.Do(func() {
		if d.ctl != nil {
			d.ctl.Close()
		}
		d.cmd.Process.Kill()
		d.cmd.Wait()
	})
}

// procSample is what the operating system and the Go runtime say about
// the child at one instant.
type procSample struct {
	cpu        time.Duration // utime+stime
	syscalls   int64         // syscr+syscw
	totalAlloc int64
	mallocs    int64
	numGC      int64
	gcCPUFrac  float64
	peakRSS    int64 // bytes
}

func (d *daemon) sample() (procSample, error) {
	var s procSample
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return s, err
	}
	if s.cpu, err = parseProcStatCPU(string(stat)); err != nil {
		return s, err
	}
	pio, err := os.ReadFile("/proc/" + pid + "/io")
	if err != nil {
		return s, err
	}
	s.syscalls = parseProcIO(string(pio))
	// VmHWM, not the MaxRSS of getrusage: exec folds the parent's peak
	// into the latter, and the parent has just cycled gigabytes.
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return s, err
	}
	s.peakRSS = parseProcStatusKB(string(status), "VmHWM") << 10
	resp, err := http.Get("http://" + d.httpAddr + "/debug/pprof/heap?debug=1")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("heap profile: %s", resp.Status)
	}
	ms, err := parseHeapMemStats(resp.Body)
	if err != nil {
		return s, err
	}
	s.totalAlloc, s.mallocs, s.numGC = int64(ms["TotalAlloc"]), int64(ms["Mallocs"]), int64(ms["NumGC"])
	s.gcCPUFrac = ms["GCCPUFraction"]
	return s, nil
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go runs on.
const clockTick = 10 * time.Millisecond

// parseProcStatCPU returns utime+stime from a /proc/<pid>/stat line.
// The command name may contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseProcIO returns syscr+syscw from /proc/<pid>/io.
func parseProcIO(text string) int64 {
	var n int64
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "syscr: "); ok {
			k, _ := strconv.ParseInt(v, 10, 64)
			n += k
		}
		if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			k, _ := strconv.ParseInt(v, 10, 64)
			n += k
		}
	}
	return n
}

// parseProcStatusKB returns the value of a "Name:   123 kB" line of
// /proc/<pid>/status, or 0 when the line is missing.
func parseProcStatusKB(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+":"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// parseHeapMemStats reads the "# Name = value" footer that
// /debug/pprof/heap?debug=1 prints from runtime.MemStats.
func parseHeapMemStats(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok || !strings.HasPrefix(sc.Text(), "# ") {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	if _, ok := out["TotalAlloc"]; !ok {
		return nil, fmt.Errorf("heap profile: no TotalAlloc line")
	}
	return out, sc.Err()
}

// selfCPU returns the benchmark process's own utime+stime.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrate runs a fixed copy+CRC kernel and returns MB/s: a reading of
// how fast the host is right now, to tell a slow run from a slow host.
func calibrate() float64 {
	src, dst := make([]byte, 8<<20), make([]byte, 8<<20)
	var sum uint32
	pass := func() {
		copy(dst, src)
		sum += crc32.ChecksumIEEE(dst)
		src[sum%uint32(len(src))] = byte(sum)
	}
	pass() // takes the page faults of the two fresh buffers
	start := time.Now()
	for i := 0; i < 16; i++ {
		pass()
	}
	return 2 * 16 * 8 / time.Since(start).Seconds()
}

// engineStats fetches OpStats over the control connection.
func (d *daemon) engineStats() (server.StatsReply, error) {
	return d.ctl.StatsContext(context.Background())
}

// warmMemory touches and releases n bytes of anonymous memory. On this
// sandbox the first touch of a page the guest has not used lately costs
// ten times a recycled page's (cold pages are handed back to the host),
// and a daemon that grows into cold memory measures the host's paging,
// not itself. Cycling the memory through this process first leaves it at
// the head of the guest's free lists for the child to take.
func warmMemory(n int) error {
	mem, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	for i := 0; i < n; i += 4096 {
		mem[i] = 1
	}
	return syscall.Munmap(mem)
}
