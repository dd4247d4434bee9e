package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"s3fifo/internal/trace"
	"s3fifo/internal/workload"
)

// TestMain lets a test run the real main in a child process, to see its
// exit status.
func TestMain(m *testing.M) {
	if os.Getenv("S3SIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSubcommands drives every subcommand at the smallest scale and checks
// the header lines of its report.
func TestSubcommands(t *testing.T) {
	cases := []struct {
		args []string
		want []string // lines the report must contain
	}{
		{[]string{"replay", "-scale", "0.001", "-algos", "lru,s3fifo"}, []string{"trace: 1700 requests, "}},
		{[]string{"replay", "-scale", "0.001", "-bytes"}, []string{"trace: 1700 requests, "}},
		{[]string{"mrc", "-scale", "0.001", "-sample", "0.5"}, []string{
			"miss-ratio curves over 1700 requests, ",
			"cache size    0.005  0.010  0.020  0.050  0.100  0.200  0.400",
		}},
		{[]string{"onehit", "-mode", "fig1"}, []string{
			"Fig. 1 — one-hit-wonder ratio of prefixes of the toy trace",
			"1..17   5        1                20%",
		}},
		{[]string{"onehit", "-mode", "fig2", "-scale", "0.001", "-samples", "1"}, []string{
			"Fig. 2 — one-hit-wonder ratio vs sequence length (fraction of objects)",
		}},
		{[]string{"onehit", "-mode", "fig3", "-scale", "0.001", "-samples", "1"}, []string{
			"Fig. 3 — one-hit-wonder ratio across the corpus",
			"seq length   p10    p25    median mean   p75    p90",
		}},
		{[]string{"onehit", "-scale", "0.001", "-samples", "1"}, []string{
			"Table 1 — dataset statistics (synthetic profiles vs paper targets)",
		}},
		{[]string{"fig", "-exp", "fig4", "-scale", "0.001"}, []string{
			"==== Fig. 4 — frequency of objects at eviction ====",
			"trace    algorithm  freq:0     1      2      3      4+",
		}},
		{[]string{"fig", "-exp", "fig7", "-scale", "0.001", "-workers", "2"}, []string{
			"==== Fig. 6/7 — miss-ratio reductions ====",
			"-- cache size = 0.1 of footprint: miss-ratio reduction vs FIFO --",
			"-- per-dataset means (Fig. 7), cache 0.01 --",
		}},
		{[]string{"fig", "-exp", "byte", "-scale", "0.001"}, []string{"==== §5.2.3 — byte miss-ratio reductions ===="}},
		{[]string{"fig", "-exp", "fig8", "-scale", "0.001"}, []string{
			"==== Fig. 8 — throughput scaling ====",
			"-- small cache (objects/100) --",
			"cache          threads  shards   Mops/s   hit-ratio      p50      p99     p999",
		}},
		{[]string{"fig", "-exp", "fig9", "-scale", "0.001"}, []string{
			"==== Fig. 9 — flash admission: miss ratio and normalized write bytes ====",
		}},
		{[]string{"fig", "-exp", "fig10", "-scale", "0.001"}, []string{
			"==== Fig. 10 + Table 2 — quick demotion ====",
			"trace    size  algorithm  Sratio  speed    precision  missratio",
		}},
		{[]string{"fig", "-exp", "fig11", "-scale", "0.001"}, []string{
			"==== Fig. 11 — small queue size sweep ====",
			"-- cache size = 0.01 of footprint --",
		}},
		{[]string{"fig", "-exp", "adaptive", "-scale", "0.001"}, []string{"==== §6.2.2 — S3-FIFO vs S3-FIFO-D ===="}},
		{[]string{"fig", "-exp", "ablation", "-scale", "0.001"}, []string{"==== §6.3 — queue-type ablation ===="}},
		{[]string{"fig", "-exp", "design", "-scale", "0.001"}, []string{"==== design ablation — move threshold & ghost size ===="}},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var out bytes.Buffer
			if err := run(c.args, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(out.String(), "\n")
			for _, want := range c.want {
				found := false
				for _, l := range lines {
					found = found || strings.HasPrefix(l, want)
				}
				if !found {
					t.Errorf("no line starts with %q in:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestGenRoundTrips writes a profile in each of the three formats and
// reads it back through trace.LoadFile; replay then reads the file too.
func TestGenRoundTrips(t *testing.T) {
	p, _ := workload.ProfileByName("msr")
	want := p.Generate(0, 0.001)
	dir := t.TempDir()
	for _, f := range []struct {
		name string
		flag string
	}{{"t.bin", ""}, {"t.csv", "-csv"}, {"t.oracleGeneral", "-oracle"}} {
		path := filepath.Join(dir, f.name)
		args := []string{"gen", "-profile", "msr", "-scale", "0.001", "-out", path}
		if f.flag != "" {
			args = append(args, f.flag)
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out.String(), fmt.Sprintf("wrote %d requests (", len(want))) {
			t.Errorf("%s: report %q", f.name, out.String())
		}
		got, err := trace.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if f.flag == "-oracle" {
			// oracleGeneral carries no operation; every request reads back a get.
			for i := range got {
				got[i].Op = want[i].Op
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: read back %d requests that differ from the %d generated", f.name, len(got), len(want))
		}
		out.Reset()
		if err := run([]string{"replay", "-trace", path, "-algos", "s3fifo"}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(out.String(), fmt.Sprintf("trace: %d requests, ", len(want))) {
			t.Errorf("%s: replay report %q", f.name, out.String())
		}
	}
}

// TestGenReportsWriteErrors: a file that cannot be written fails gen.
func TestGenReportsWriteErrors(t *testing.T) {
	err := run([]string{"gen", "-requests", "10", "-objects", "5", "-out", "/dev/full"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("gen to /dev/full succeeded")
	}
}

// TestBadCommandLines: an unknown subcommand, experiment or mode is a
// usage error, and main exits 2 on it.
func TestBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"sweep"},
		{"fig", "-exp", "fig5"},
		{"onehit", "-mode", "fig4"},
		{"replay", "-no-such-flag"},
	} {
		if err := run(args, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "S3SIM_RUN_MAIN=1")
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("s3sim %q: %v, want exit status 2", args, err)
		}
	}
	if err := run([]string{"replay", "-profile", "nope"}, &bytes.Buffer{}); err == nil || errors.Is(err, errUsage) {
		t.Errorf("unknown profile: %v, want a plain error", err)
	}
}
