package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/api/client"
)

// binaries are the programs under test, built once per invocation
// from the checkout the benchmark runs in.
type binaries struct {
	dogmatix  string
	dogmatixd string
}

// buildBinaries compiles cmd/dogmatix and cmd/dogmatixd from root
// into dir. The build is not part of any metric: set-up time starts
// after it.
func buildBinaries(root, dir string) (*binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/dogmatix", "./cmd/dogmatixd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/dogmatix ./cmd/dogmatixd: %v\n%s", err, out)
	}
	return &binaries{
		dogmatix:  filepath.Join(dir, "dogmatix"),
		dogmatixd: filepath.Join(dir, "dogmatixd"),
	}, nil
}

// procResult is what one finished child process left behind.
type procResult struct {
	wall   time.Duration
	stdout []byte
	stderr []byte
	rssMB  float64 // ru_maxrss
}

// runProcess runs one child to completion, timing it from start to
// exit. A non-zero exit is returned as an error carrying its stderr.
func runProcess(bin string, args ...string) (*procResult, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	begin := time.Now()
	err := cmd.Run()
	res := &procResult{wall: time.Since(begin), stdout: stdout.Bytes(), stderr: stderr.Bytes()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KB
		}
	}
	if err != nil {
		return res, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return res, nil
}

// daemon is one running dogmatixd child.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	stderr *lockedBuffer
	boot   time.Duration // process start until /healthz said ok
	done   chan error    // receives cmd.Wait's result once
	exited bool          // that result has been received
}

// lockedBuffer collects a child's stderr while it runs.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingRE = regexp.MustCompile(`on (http://[0-9.:]+)`)

// daemonStartTimeout bounds one boot; the largest corpus boots in a
// few seconds.
const daemonStartTimeout = 60 * time.Second

// startDaemon launches dogmatixd on an ephemeral loopback port and
// waits until /healthz answers ok. The processes under test keep
// their defaults: no GOMAXPROCS, no tuning flags beyond args.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{stderr: &lockedBuffer{}, done: make(chan error, 1)}
	d.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = d.stderr
	// Should the benchmark itself be killed, the daemon must not outlive it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	begin := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.done <- d.cmd.Wait() }()

	deadline := begin.Add(daemonStartTimeout)
	for d.url == "" {
		if m := servingRE.FindStringSubmatch(d.stderr.String()); m != nil {
			d.url = m[1]
			break
		}
		select {
		case err := <-d.done:
			d.exited = true
			return nil, fmt.Errorf("dogmatixd %s exited during boot: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(d.stderr.String()))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("dogmatixd did not start listening within %v: %s", daemonStartTimeout, d.stderr.String())
		}
	}
	c := client.New(d.url)
	for {
		h, err := c.Health(context.Background())
		if err == nil && h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("dogmatixd /healthz not ok within %v (last: %v)", daemonStartTimeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.boot = time.Since(begin)
	return d, nil
}

// stop sends SIGTERM and waits for the graceful drain to finish.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-d.done:
		d.exited = true
		if err != nil {
			return fmt.Errorf("dogmatixd exit: %v: %s", err, strings.TrimSpace(d.stderr.String()))
		}
		return nil
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("dogmatixd did not drain within 60s of SIGTERM")
	}
}

// kill makes sure the child is gone: the last resort for one that will
// not exit, and a no-op for one that already has — so it can be
// deferred next to every start.
func (d *daemon) kill() {
	if d.exited {
		return
	}
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.done
	d.exited = true
}

// procStatus reads the live daemon's high-water RSS (MB) and consumed
// CPU seconds from /proc.
func (d *daemon) procStatus() (hwmMB, cpuS float64) {
	pid := d.cmd.Process.Pid
	if buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if strings.HasPrefix(line, "VmHWM:") {
				f := strings.Fields(line)
				if len(f) >= 2 {
					kb, _ := strconv.ParseFloat(f[1], 64)
					hwmMB = kb / 1024
				}
			}
		}
	}
	if buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime
		// are the 14th and 15th of the line, in clock ticks (100/s on
		// every Linux the toolchain supports).
		if i := bytes.LastIndexByte(buf, ')'); i >= 0 {
			f := strings.Fields(string(buf[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				cpuS = (ut + st) / 100
			}
		}
	}
	return hwmMB, cpuS
}

// newAPIClient returns a client that holds exactly one connection to
// the daemon: a closed-loop caller that waits for each reply.
func newAPIClient(url string) *client.Client {
	c := client.New(url)
	c.HTTP = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     time.Minute,
	}}
	return c
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil // a file vanishing mid-walk only means it no longer counts
	})
	return n
}
