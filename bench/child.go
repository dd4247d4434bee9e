package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"s3fifo/client"
)

// layout is where the benchmark finds the repository and keeps what it
// builds. Everything it writes is under the checkout: binaries and temp
// directories in .bench_build, result and trace files in bench/out.
type layout struct {
	root string // the checkout: holds BENCHMARK.json and cmd/s3cached
	tmp  string // this process's own directory under .bench_build/tmp
}

// findRoot walks up from the working directory to the checkout.
func findRoot() (layout, error) {
	dir, err := os.Getwd()
	if err != nil {
		return layout{}, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "s3cached", "main.go")); err != nil {
				return layout{}, fmt.Errorf("%s holds BENCHMARK.json but not cmd/s3cached: not a checkout of the repository", dir)
			}
			tmp := filepath.Join(dir, ".bench_build", "tmp", fmt.Sprintf("run-%d", os.Getpid()))
			return layout{root: dir, tmp: tmp}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return layout{}, errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func (l layout) buildDir() string { return filepath.Join(l.root, ".bench_build") }
func (l layout) outDir() string   { return filepath.Join(l.root, "bench", "out") }
func (l layout) server() string   { return filepath.Join(l.buildDir(), "bin", "s3cached") }

// buildServer compiles cmd/s3cached from the checkout's source. The go
// build cache makes every call after the first a sub-second no-op.
func (l layout) buildServer() error {
	cmd := exec.Command("go", "build", "-o", l.server(), "./cmd/s3cached")
	cmd.Dir = l.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/s3cached: %v\n%s", err, out)
	}
	return nil
}

// tempDir makes a fresh directory under the process's temp directory.
func (l layout) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(l.tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(l.tmp, prefix)
}

// child is a running s3cached. The flags passed here are the benchmark's
// whole contract with the binary.
type child struct {
	cmd    *exec.Cmd
	addr   string
	dir    string // temp dir holding the flash tier and the stderr log
	stderr *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startChild launches the server for w and waits until it answers Ping.
// gctrace turns the Go runtime's GC log on in the child (traced runs).
func (l layout) startChild(w *workload, gctrace bool) (*child, error) {
	dir, err := l.tempDir(w.name + "-")
	if err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	args := []string{"-addr", addr, "-max-bytes", strconv.FormatUint(w.maxBytes, 10)}
	if w.engine != "" {
		args = append(args, "-engine", w.engine)
	}
	if w.flashBytes > 0 {
		args = append(args, "-flash-dir", filepath.Join(dir, "flash"),
			"-flash-bytes", strconv.FormatUint(w.flashBytes, 10))
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cmd := exec.Command(l.server(), args...)
	cmd.Stderr = stderr
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	// The child dies with the benchmark even if the benchmark is killed
	// outright: no orphan s3cached.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		stderr.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ch := &child{cmd: cmd, addr: addr, dir: dir, stderr: stderr}
	if err := ch.waitReady(5 * time.Second); err != nil {
		ch.stop()
		return nil, err
	}
	return ch, nil
}

func (ch *child) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		c, err := client.DialOptions(ch.addr, client.Options{Binary: true, DialTimeout: time.Second})
		if err == nil {
			err = c.Ping()
			c.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("s3cached on %s not ready after %v: %v", ch.addr, limit, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the child, waits for it to end and removes its temp dir.
func (ch *child) stop() {
	ch.cmd.Process.Kill()
	ch.cmd.Wait()
	ch.stderr.Close()
	os.RemoveAll(ch.dir)
}

func (ch *child) pid() int { return ch.cmd.Process.Pid }

// clockTick is USER_HZ: Linux reports process CPU times in 1/100 s on
// every architecture Go runs on.
const clockTick = 100

// procCPU returns the user+system CPU seconds a process has used, from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesised
// command name, which may itself contain spaces).
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	return float64(utime+stime) / clockTick, nil
}

// procStatusKB reads one "<field>:  <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return kb / 1024, err
}

// ctxSwitches sums voluntary and involuntary context switches over every
// thread of the process.
func ctxSwitches(pid int) (uint64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("/proc/%d/task: no threads", pid)
	}
	var total uint64
	for _, path := range tasks {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // a thread that exited between the glob and the read
		}
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "voluntary_ctxt_switches:") || strings.HasPrefix(line, "nonvoluntary_ctxt_switches:") {
				if f := strings.Fields(line); len(f) == 2 {
					n, _ := strconv.ParseUint(f[1], 10, 64)
					total += n
				}
			}
		}
	}
	return total, nil
}
