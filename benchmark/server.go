package main

import (
	"bytes"
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
	"syscall"
	"time"

	"oipa/internal/serve"
)

// serverProc is one oipa-serve child at its default flags. stop must be
// called on every path; it terminates the child and waits for it.
type serverProc struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	done   chan struct{} // closed once the child has been reaped
}

// startServer boots the real binary on a free loopback port and waits
// for /readyz. Request logging is off: one JSON log line per request
// would measure stderr, not the service.
func startServer(ctx context.Context, bin, graphPath string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick a loopback port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cctx, cancel := context.WithCancel(ctx)
	p := &serverProc{cancel: cancel, base: "http://" + addr, done: make(chan struct{})}
	p.cmd = exec.CommandContext(cctx, bin, "-graph", graphPath, "-addr", addr, "-log-requests=false")
	p.cmd.Stderr = &p.stderr
	// Cancellation asks for the graceful drain first; WaitDelay bounds it.
	p.cmd.Cancel = func() error { return p.cmd.Process.Signal(syscall.SIGTERM) }
	p.cmd.WaitDelay = 20 * time.Second
	if err := p.cmd.Start(); err != nil {
		cancel()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a signalled child carries no information
		close(p.done)
	}()
	if err := p.waitReady(ctx, 60*time.Second); err != nil {
		p.stop()
		return nil, fmt.Errorf("%w; server stderr: %s", err, p.stderr.String())
	}
	return p, nil
}

func (p *serverProc) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		select {
		case <-p.done:
			return fmt.Errorf("oipa-serve exited before it was ready")
		default:
		}
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("oipa-serve not ready within %s", limit)
}

// stop terminates the child (SIGTERM, then SIGKILL after WaitDelay) and
// reaps it. Safe to call more than once.
func (p *serverProc) stop() {
	p.cancel()
	<-p.done
}

func (p *serverProc) metrics(ctx context.Context) (*serve.MetricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	var snap serve.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &snap, nil
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc.
const clockTick = 100

// cpuSeconds is the child's user+system CPU so far, from /proc/<pid>/stat.
func (p *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// parseStatCPU reads utime+stime (fields 14 and 15) of a /proc stat
// line. The command name (field 2) may itself hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:]) // f[0] is field 3
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc stat line")
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB is the child's resident high-water mark (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(data))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
