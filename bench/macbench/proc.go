package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns every child process and temporary directory the benchmark
// creates. close kills the children that are still running, waits
// until each has exited and removes the directories, so a run that
// ends early — an error or an interrupt — leaves nothing behind.
type procs struct {
	tmpRoot string

	mu       sync.Mutex
	closed   bool
	children map[*child]struct{}
	dirs     []string
}

// child is one started process. Its wait goroutine is the only caller
// of cmd.Wait; done closes once the process has exited.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

func newProcs(tmpRoot string) *procs {
	return &procs{tmpRoot: tmpRoot, children: make(map[*child]struct{})}
}

var errClosed = errors.New("the benchmark is shutting down")

// start launches cmd. Children also get SIGKILL should macbench die
// without running close.
func (p *procs) start(cmd *exec.Cmd) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errClosed
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	p.children[c] = struct{}{}
	go func() {
		c.err = cmd.Wait()
		p.mu.Lock()
		delete(p.children, c)
		p.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// wait blocks until the child exits and returns its exit error.
func (c *child) wait() error {
	<-c.done
	return c.err
}

// maxRSSKiB is the child's peak resident set size (getrusage
// ru_maxrss). Valid after wait.
func (c *child) maxRSSKiB() float64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss)
	}
	return 0
}

// tempDir creates a directory under the benchmark's temporary root that
// close removes.
func (p *procs) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(p.tmpRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(p.tmpRoot, pattern)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.dirs = append(p.dirs, dir)
	p.mu.Unlock()
	return dir, nil
}

// close kills the remaining children, waits for them and removes every
// temporary directory. It is safe to call more than once.
func (p *procs) close() {
	p.mu.Lock()
	p.closed = true
	live := make([]*child, 0, len(p.children))
	for c := range p.children {
		live = append(live, c)
	}
	dirs := p.dirs
	p.dirs = nil
	p.mu.Unlock()
	for _, c := range live {
		_ = c.cmd.Process.Kill() // already exiting: the error is harmless
	}
	for _, c := range live {
		<-c.done
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// findBenchModule returns the directory of the benchmark's own Go
// module, looked up from the repository root or from inside bench/.
func findBenchModule() (string, error) {
	for _, dir := range []string{"bench", ".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module repro/bench\n") {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("cannot find the bench module (run from the repository root)")
}

// buildBinaries builds macsim and macsimd from the checkout into dir.
func buildBinaries(ctx context.Context, p *procs, dir string) (time.Duration, error) {
	mod, err := findBenchModule()
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs+string(filepath.Separator), "repro/cmd/macsim", "repro/cmd/macsimd")
	cmd.Dir = mod
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	c, err := p.start(cmd)
	if err != nil {
		return 0, err
	}
	if err := c.wait(); err != nil {
		return 0, fmt.Errorf("building macsim and macsimd: %w", err)
	}
	return time.Since(start), nil
}

// daemon is a running macsimd child listening on a loopback port.
type daemon struct {
	child *child
	base  string // http://host:port
	logs  *logTail
}

// logTail keeps the last lines a child wrote, for error messages.
type logTail struct {
	mu    sync.Mutex
	lines []string
}

func (l *logTail) add(line string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, line)
	if len(l.lines) > 20 {
		l.lines = l.lines[1:]
	}
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// startDaemon launches macsimd on 127.0.0.1:0, learns the bound address
// from its startup log line and waits until /healthz answers.
func startDaemon(ctx context.Context, p *procs, bin string, client *http.Client, args ...string) (*daemon, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = w
	c, err := p.start(cmd)
	w.Close() // the child holds its own copy
	if err != nil {
		r.Close()
		return nil, err
	}
	d := &daemon{child: c, logs: &logTail{}}
	addrC := make(chan string, 1)
	go func() {
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			d.logs.add(line)
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
				if addr, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addrC <- addr:
					default:
					}
				}
			}
		}
	}()
	select {
	case addr := <-addrC:
		d.base = "http://" + addr
	case <-c.done:
		return nil, fmt.Errorf("macsimd exited before listening: %v\n%s", c.err, d.logs)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("macsimd did not report its address within 20s\n%s", d.logs)
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		status, _, err := get(ctx, client, d.base+"/healthz")
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.kill()
			return nil, fmt.Errorf("macsimd /healthz not ready: status %d, %v\n%s", status, err, d.logs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill stops the daemon at once and waits for it to exit.
func (d *daemon) kill() {
	_ = d.child.cmd.Process.Kill() // already exiting: the error is harmless
	<-d.child.done
}

// stop drains the daemon with SIGTERM, falling back to SIGKILL after
// 20s, and waits for it to exit.
func (d *daemon) stop() {
	_ = d.child.cmd.Process.Signal(syscall.SIGTERM) // already exiting: harmless
	select {
	case <-d.child.done:
	case <-time.After(20 * time.Second):
		d.kill()
	}
}

// peakRSSMiB reads the daemon's peak resident set size (VmHWM) while it
// is still running.
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.child.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// get issues one GET and returns the status and body.
func get(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(client, req)
}

// post issues one POST of a JSON body and returns the status, the
// X-Cache header and the body.
func post(ctx context.Context, client *http.Client, url string, body []byte, header http.Header) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), data, err
}

func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// newClient returns an HTTP client holding at most conns connections
// to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}

// scrapeMetrics reads the daemon's /metrics counters and gauges
// (unlabeled samples only).
func scrapeMetrics(ctx context.Context, client *http.Client, base string) (map[string]float64, error) {
	status, data, err := get(ctx, client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
