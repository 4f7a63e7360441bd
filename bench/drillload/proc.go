package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smartdrill/api"
	"smartdrill/client"
)

// datasetName is what the generated table is registered as: the server
// sees a neutral name, never the workload's.
const datasetName = "bench"

// serverProc is one running smartdrilld child.
type serverProc struct {
	cmd  *exec.Cmd
	args []string
	base string // http://127.0.0.1:port
	logf *os.File
	done chan struct{} // closed once the child has been reaped
}

// buildServer compiles cmd/smartdrilld from the checkout into outDir.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "smartdrilld")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/smartdrilld")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building smartdrilld: %v\n%s", err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before smartdrilld binds it, so a racing process could take it;
// startServer's readiness wait then fails the run rather than measuring
// someone else's server.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs smartdrilld on a free port with stderr appended to
// logPath and returns without waiting for readiness (the caller times it).
func startServer(bin, csv, logPath string, flags []string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-dataset", datasetName + "=" + csv}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The kernel SIGKILLs the child if drillload itself dies without
	// running its cleanup (a SIGKILL from a timeout), so no exit path
	// leaves a server behind. Linux only, like the /proc readings below.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting smartdrilld: %w", err)
	}
	s := &serverProc{cmd: cmd, args: args, base: "http://" + addr, logf: logf, done: make(chan struct{})}
	// The reaper ends when the child does; kill waits on it, so every
	// started server is both stopped and waited for.
	go func() {
		cmd.Wait() //nolint:errcheck // killed on purpose: a non-zero status is expected
		logf.Close()
		close(s.done)
	}()
	return s, nil
}

// kill SIGKILLs the server and waits until it has been reaped; safe to
// call twice and on a server that already died.
func (s *serverProc) kill() {
	if s == nil {
		return
	}
	s.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-s.done
}

func (s *serverProc) pid() int                { return s.cmd.Process.Pid }
func (s *serverProc) url() string             { return s.base }
func (s *serverProc) exited() <-chan struct{} { return s.done }

// host is a running server as the harness sees it: a child process in a
// gated run, an in-process handler behind a listener in a traced one.
type host interface {
	url() string
	pid() int
	// exited is closed if the server dies on its own (nil if it cannot).
	exited() <-chan struct{}
	kill()
}

// waitReady polls /v1/health until the server answers ok and its dataset
// reports at least wantWarmed precomputed expansions (0 when warming is
// off). It fails if the child exits first or ctx expires.
func waitReady(ctx context.Context, exited <-chan struct{}, c *client.Client, wantWarmed int64) (*api.Health, error) {
	for {
		if h, err := c.Health(ctx); err == nil && h.Status == "ok" && warmedOf(h) >= wantWarmed {
			return h, nil
		}
		select {
		case <-exited:
			return nil, fmt.Errorf("smartdrilld exited before becoming ready (see its log)")
		case <-ctx.Done():
			return nil, fmt.Errorf("smartdrilld not ready: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

func warmedOf(h *api.Health) int64 {
	for _, d := range h.Datasets {
		if d.Name == datasetName && d.Cache != nil {
			return d.Cache.Warmed
		}
	}
	return 0
}

func cacheOf(h *api.Health) api.CacheHealth {
	for _, d := range h.Datasets {
		if d.Name == datasetName && d.Cache != nil {
			return *d.Cache
		}
	}
	return api.CacheHealth{}
}

// cpuTicks returns utime+stime of pid from /proc/<pid>/stat, in clock
// ticks (100/s on Linux). The comm field may hold spaces, so fields are
// counted from the closing parenthesis.
func cpuTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest) // f[0] is state (field 3); utime/stime are fields 14/15
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return ut + st, nil
}

// tickMS is the length of one /proc clock tick; USER_HZ is 100 on every
// Linux ABI Go supports.
const tickMS = 10.0

// peakRSSMB returns VmHWM of pid in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
