package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildChildren compiles the programs under test from the tree at repoRoot
// into binDir. The go build cache makes every call after the first cheap.
func buildChildren(repoRoot, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/xkserver", "./cmd/xkshred")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build xkserver xkshred: %v\n%s", err, out)
	}
	return nil
}

// freeAddr reserves a loopback port by binding it and letting it go; the
// server is told the number (it logs its flag, not the bound address, so
// ":0" would leave the harness blind).
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// server is one xkserver child. stop must be called exactly once on every
// path after a successful start.
type server struct {
	cmd     *exec.Cmd
	base    string // http://host:port of the API listener
	debug   string // http://host:port of the pprof listener
	logPath string
	logFile *os.File
	exited  chan struct{} // closed once Wait has returned
	waitErr error
}

// startServer launches xkserver with the given source flags on free
// loopback ports, captures its stderr in logPath, and returns once /healthz
// answers 200. A child that exits first fails fast with its log tail.
func startServer(bin string, args []string, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debug, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr, "-debug-addr", debug)...)
	cmd.Stderr = logFile
	cmd.SysProcAttr = childProcAttr()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	s := &server{
		cmd: cmd, base: "http://" + addr, debug: "http://" + debug,
		logPath: logPath, logFile: logFile, exited: make(chan struct{}),
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitHealthy(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("xkserver exited before serving (%v); log tail:\n%s", s.waitErr, tail(s.logPath, 10))
		default:
		}
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("xkserver not healthy after %v; log tail:\n%s", limit, tail(s.logPath, 10))
}

// stop sends SIGTERM, waits for the graceful drain, kills after 15 s, and
// always reaps the child.
func (s *server) stop() {
	select {
	case <-s.exited:
	default:
		s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(15 * time.Second):
			s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.logFile.Close()
}

// alive reports an early exit as an error carrying the log tail.
func (s *server) alive() error {
	select {
	case <-s.exited:
		return fmt.Errorf("xkserver exited mid-run (%v); log tail:\n%s", s.waitErr, tail(s.logPath, 10))
	default:
		return nil
	}
}

func tail(path string, lines int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	all := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	return strings.Join(all[max(0, len(all)-lines):], "\n")
}

// usage is a process's resource consumption so far: user+system CPU and
// resident memory (current and high-water).
type usage struct {
	CPU   time.Duration
	RSSKB int64
	HWMKB int64
}

// clockTick is the kernel's USER_HZ, 100 on every Linux architecture Go
// supports.
const clockTick = 100

// procUsage reads /proc/<pid>/{stat,status}. It fails where /proc does not
// exist; the meter then reports CPU and resident memory as zero.
func procUsage(pid int) (usage, error) {
	var u usage
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, 12th and 13th after ") ".
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return u, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, errors.New("bad /proc stat times")
	}
	u.CPU = time.Duration(ut+st) * time.Second / clockTick
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return u, err
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		switch k {
		case "VmRSS":
			u.RSSKB = n
		case "VmHWM":
			u.HWMKB = n
		}
	}
	return u, nil
}

// scrapeMetrics fetches /metrics and returns every series by its full text
// name (labels included), e.g. `xks_stage_duration_seconds_sum{stage="plan"}`.
func scrapeMetrics(ctx context.Context, base string) (map[string]float64, error) {
	body, err := httpGet(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// memStats is the part of runtime.MemStats the harness reads, whether from
// its own runtime or from the footer of a child's
// /debug/pprof/heap?debug=1.
type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
	NumGC      uint64
	HeapAlloc  uint64
	// PauseTotalNs is set when the stats come from the harness's own
	// runtime; pauseRing (the runtime's 256-entry PauseNs ring) when they
	// come from a child's footer, which does not print the total.
	PauseTotalNs uint64
	pauseRing    []uint64
}

// gcPauseBetween is the stop-the-world pause time of the collections that
// ran between two readings of one process. From a child's ring it covers
// at most the last 256 of them.
func gcPauseBetween(before, after memStats) time.Duration {
	if after.pauseRing == nil {
		return time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	}
	var total uint64
	first := max(before.NumGC, after.NumGC-min(after.NumGC, uint64(len(after.pauseRing))))
	for g := first + 1; g <= after.NumGC; g++ {
		total += after.pauseRing[(g-1)%uint64(len(after.pauseRing))]
	}
	return time.Duration(total)
}

func scrapeMemStats(ctx context.Context, debugBase string) (memStats, error) {
	var m memStats
	body, err := httpGet(ctx, debugBase+"/debug/pprof/heap?debug=1")
	if err != nil {
		return m, err
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 4<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		var dst *uint64
		switch k {
		case "Mallocs":
			dst = &m.Mallocs
		case "TotalAlloc":
			dst = &m.TotalAlloc
		case "NumGC":
			dst = &m.NumGC
		case "HeapAlloc":
			dst = &m.HeapAlloc
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(v, "[]")) {
				n, _ := strconv.ParseUint(f, 10, 64)
				m.pauseRing = append(m.pauseRing, n)
			}
			if len(m.pauseRing) > 0 {
				found++
			}
			continue
		default:
			continue
		}
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			*dst = n
			found++
		}
	}
	if found < 5 {
		return m, fmt.Errorf("pprof heap footer: found %d of 5 MemStats fields", found)
	}
	return m, nil
}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}
