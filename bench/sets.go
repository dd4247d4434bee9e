package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runSets is `bench -repeat N`: N full sets, a set being one timed run of
// every workload (or of the one named), set i on seed+i, every run in a
// process of its own so that peak memory and GC state do not carry over.
// It prints, per metric, the median, the quartiles and the spread
// (interquartile range over the median, the figure the driver judges), and
// returns a non-zero exit code when a run was incorrect or an end-to-end
// spread exceeds its bound.
func runSets(l layout, only string, seed uint64, seconds float64, n int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	values := map[string]map[string][]float64{} // workload -> metric -> one value a set
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			if only != "" && w.name != only {
				continue
			}
			r, err := runOnce(self, l, w.name, seed+uint64(i), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, seed+uint64(i), err)
				code = 1
				continue
			}
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: incorrect run (%d of %d failed)\n",
					w.name, seed+uint64(i), r.Failed, r.Attempted)
				code = 1
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				values[w.name][name] = append(values[w.name][name], m.Value)
			}
		}
	}
	for _, w := range workloads {
		of := values[w.name]
		if of == nil {
			continue
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %v s each\n", w.name, n, seed, seed+uint64(n)-1, seconds)
		fmt.Printf("  %-16s %-7s %-6s %12s %12s %12s %8s %6s\n", "metric", "unit", "better", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, _, q3 := quartiles(of[d.Name])
			sp := spread(of[d.Name])
			verdict := ""
			// setup_s is judged on its median only: the driver exempts its
			// spread.
			if n > 1 && sp > d.Bound && d.Name != "setup_s" {
				verdict = "  SPREAD EXCEEDS BOUND"
				code = 1
			}
			fmt.Printf("  %-16s %-7s %-6s %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				d.Name, d.Unit, d.Better, q1, median(of[d.Name]), q3, 100*sp, 100*d.Bound, verdict)
		}
	}
	return code
}

// runOnce runs one timed run in a child process and parses its last line.
func runOnce(self string, l layout, workload string, seed uint64, seconds float64) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = l.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if jerr := json.Unmarshal([]byte(last), &r); jerr != nil {
		if err != nil {
			return r, err
		}
		return r, fmt.Errorf("no result line: %v", jerr)
	}
	return r, nil
}
