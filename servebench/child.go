package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
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
)

// child is one running rcserved process.
type child struct {
	cmd  *exec.Cmd
	base string
	done chan error // receives cmd.Wait's result once

	mu     sync.Mutex
	access map[string]accessLine // trace id → access-log line (traced runs)

	stopOnce sync.Once
	stopErr  error
}

// accessLine is the part of rcserved's JSON access log the benchmark
// reads: the in-process handling time of one request.
type accessLine struct {
	TraceID    string  `json:"trace_id"`
	DurationMS float64 `json:"duration_ms"`
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild spawns rcserved on a fresh loopback port and waits until
// /readyz answers 200. With keepAccess the access log is parsed, so
// traced runs can subtract the server's handling time from the client
// latency.
func startChild(bin string, args []string, keepAccess bool) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// The server must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, base: "http://" + addr, done: make(chan error, 1), access: map[string]accessLine{}}
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		c.readLog(stderr, keepAccess)
	}()
	go func() {
		<-logDone
		c.done <- cmd.Wait()
	}()
	if err := c.waitReady(30 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// readLog drains the child's stderr; rcserved writes one JSON line per
// request, and a pipe nobody reads would stall it.
func (c *child) readLog(r io.Reader, keepAccess bool) {
	if !keepAccess {
		io.Copy(io.Discard, r)
		return
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.Contains(string(line[:min(len(line), 80)]), `"msg":"access"`) {
			continue
		}
		var a accessLine
		if err := json.Unmarshal(line, &a); err != nil {
			continue
		}
		c.mu.Lock()
		c.access[a.TraceID] = a
		c.mu.Unlock()
	}
	// A line over the scanner's limit stops the scan; keep draining.
	io.Copy(io.Discard, r)
}

func (c *child) accessFor(traceID string) (accessLine, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.access[traceID]
	return a, ok
}

func (c *child) waitReady(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-c.done:
			c.stopOnce.Do(func() { c.stopErr = err })
			return fmt.Errorf("rcserved exited before ready: %v", err)
		default:
		}
		resp, err := hc.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("rcserved not ready within %v", limit)
}

// stop sends SIGTERM, waits for the drain and kills the process if it
// outlives the drain deadline. Idempotent: later calls return the first
// call's result.
func (c *child) stop() error {
	c.stopOnce.Do(func() {
		c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case c.stopErr = <-c.done:
		case <-time.After(15 * time.Second):
			c.cmd.Process.Kill()
			c.stopErr = <-c.done
		}
	})
	return c.stopErr
}

// procStat is the child's CPU time and peak resident set, read from
// /proc.
type procStat struct {
	cpu     time.Duration // utime + stime
	hwmKB   int64         // VmHWM
	readErr error
}

// clockTick is USER_HZ, the unit of the /proc/<pid>/stat CPU fields;
// 100 on every Linux ABI Go supports.
const clockTick = 100

func (c *child) proc() procStat {
	var ps procStat
	pid := c.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		ps.readErr = err
		return ps
	}
	// The command name (field 2) may hold spaces; fields after the
	// closing parenthesis are space-separated, utime and stime being
	// fields 14 and 15 of the whole line.
	rest := strings.Fields(string(raw[strings.LastIndexByte(string(raw), ')')+1:]))
	if len(rest) < 13 {
		ps.readErr = fmt.Errorf("short /proc/%d/stat", pid)
		return ps
	}
	ut, _ := strconv.ParseInt(rest[11], 10, 64)
	st, _ := strconv.ParseInt(rest[12], 10, 64)
	ps.cpu = time.Duration(ut+st) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		ps.readErr = err
		return ps
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			ps.hwmKB, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	return ps
}

// scrape reads the unlabelled samples of the child's Prometheus
// exposition: counters, histogram _sum/_count and runtime gauges.
func (c *child) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta is after − before for every sample, the per-phase view of
// cumulative series.
func delta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
