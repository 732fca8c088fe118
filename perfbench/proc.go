package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverFlags are the flags every spawned ringo-server gets: file IO on so
// it can read the generated inputs, everything else at its default.
var serverFlags = []string{"-allow-file-io"}

// serverProc is one spawned ringo-server child.
type serverProc struct {
	cmd     *exec.Cmd
	log     *os.File
	base    string
	exec    *httpExec
	stopped bool
}

// spawnServer starts bin on a free loopback port and waits until it
// answers GET /stats. The child dies with the benchmark (Pdeathsig).
func spawnServer(bin, logPath string) (*serverProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, serverFlags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, log: logf, base: "http://" + addr}
	p.exec = newHTTPExec(p.base)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := p.stats(); err == nil {
			return p, nil
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("ringo-server on %s not ready after 30s (log: %s)", addr, logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop kills the server and waits for it to exit; stopping twice is a
// no-op.
func (p *serverProc) stop() {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
	p.log.Close()
	p.exec.client.CloseIdleConnections()
}

// Stats is the part of GET /stats the per-layer counts read.
type Stats struct {
	Cache struct {
		Hits, Misses float64
	} `json:"cache"`
	Views struct {
		Hits, Misses, Patches, Rebuilds float64
		DeltaEdges                      float64 `json:"delta_edges"`
	} `json:"views"`
	Indexes struct {
		Hits, Misses float64
	} `json:"indexes"`
}

func (p *serverProc) stats() (Stats, error) {
	var s Stats
	err := p.exec.do("GET", "/stats", nil, &s)
	return s, err
}

// requests sums ringo_http_requests_total from GET /metrics.
func (p *serverProc) requests() (float64, error) {
	resp, err := p.exec.client.Get(p.base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var total float64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "ringo_http_requests_total") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err == nil {
			total += v
		}
	}
	return total, sc.Err()
}

// peakRSSMB reads VmHWM (peak resident set) of pid in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// clkTck is the kernel's clock-tick rate for /proc/<pid>/stat times; 100
// on every Linux configuration Go supports.
const clkTck = 100

// cpuSeconds reads user+system CPU time of pid from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// The command name may contain spaces; fields resume after ')'.
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return (ut + st) / clkTck, nil
}

// stealSeconds reads the host's cumulative steal time (CPU time the
// hypervisor gave to other guests while this one was runnable) from
// /proc/stat, or 0 where it is not reported.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / clkTck
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
