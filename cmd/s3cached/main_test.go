package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"s3fifo/cache"
	"s3fifo/internal/server"
)

// TestMain lets a test run the real main in a child process, to see its
// exit status and output.
func TestMain(m *testing.M) {
	if os.Getenv("S3CACHED_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// command runs the real main with args, killed if it outlives ten seconds.
func command(t *testing.T, args ...string) *exec.Cmd {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "S3CACHED_RUN_MAIN=1")
	return cmd
}

// TestAntiStampedeSettingsNeedTheFlag: each anti-stampede setting given
// without -anti-stampede is a usage error that names it, not a setting
// silently ignored.
func TestAntiStampedeSettingsNeedTheFlag(t *testing.T) {
	for _, name := range []string{"coalesce-wait", "grace", "lease-ttl", "negative-ttl"} {
		cmd := command(t, "-addr", "127.0.0.1:0", "-max-bytes", "1048576", "-"+name, "1s")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-%s without -anti-stampede: %v, want exit status 2", name, err)
		}
		if !strings.Contains(stderr.String(), "-"+name) {
			t.Errorf("-%s without -anti-stampede: message %q does not name it", name, stderr.String())
		}
	}
}

// TestStartupLineNamesTheTierInUse: -tier-addr wins over -flash-dir, and
// the start-up line says so.
func TestStartupLineNamesTheTierInUse(t *testing.T) {
	peer := startPeer(t)
	dir := t.TempDir()
	flash := []string{"-flash-dir", dir, "-flash-bytes", "1048576"}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "(engine concurrent, 1 MiB, 1 shards)"},
		{flash, "(engine concurrent, 1 MiB DRAM + 1 MiB flash at " + dir + ", 1 shards)"},
		{append([]string{"-tier-addr", peer}, flash...), "(engine concurrent, 1 MiB DRAM + remote tier at " + peer + ", 1 shards)"},
	} {
		args := append([]string{"-addr", "127.0.0.1:0", "-max-bytes", "1048576", "-shards", "1"}, tc.args...)
		if got := startupLine(t, command(t, args...)); !strings.HasSuffix(got, tc.want) {
			t.Errorf("s3cached %q: start-up line %q, want it to end %q", tc.args, got, tc.want)
		}
	}
}

// startPeer serves a cache on a loopback port for the remote tier to dial.
func startPeer(t *testing.T) string {
	c, err := cache.New(cache.Config{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(c)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
}

// startupLine starts cmd, returns its "s3cached listening on" line, and
// stops it with SIGTERM, which must exit 0.
func startupLine(t *testing.T, cmd *exec.Cmd) string {
	t.Helper()
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line := ""
	for sc := bufio.NewScanner(out); sc.Scan(); {
		if line == "" && strings.HasPrefix(sc.Text(), "s3cached listening on ") {
			line = sc.Text()
			cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("s3cached %q after SIGTERM: %v", cmd.Args[1:], err)
	}
	return line
}
