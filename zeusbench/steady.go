package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// steadiness runs the workload n times, each in a fresh process with its
// own seed, and prints each metric's median and interquartile range (as a
// share of the median, by the quartile rule of Python's
// statistics.quantiles). This is the evidence behind the bounds in
// BENCHMARK.json.
func steadiness(cfg config, n int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "zeusbench: %v\n", err)
		return 1
	}
	printHeader(stdout, cfg)
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := cfg.seed + int64(i)
		var buf bytes.Buffer
		cmd := exec.Command(self, "--workload", cfg.w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", trace, "--workdir", cfg.workdir)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		if err := cmd.Run(); err != nil {
			stdout.Write(buf.Bytes())
			fmt.Fprintf(stderr, "zeusbench: run with seed %d: %v\n", seed, err)
			return 1
		}
		res, err := lastResult(buf.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "zeusbench: run with seed %d: %v\n", seed, err)
			return 1
		}
		var line []string
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			line = append(line, fmt.Sprintf("%s=%.4g", name, m.Value))
		}
		slices.Sort(line)
		fmt.Fprintf(stdout, "run seed=%d %s\n", seed, strings.Join(line, " "))
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Fprintf(stdout, "steadiness %s over %d runs of %d s (trace %s)\n", cfg.w.name, n, cfg.seconds, trace)
	fmt.Fprintf(stdout, "  %-30s %14s %8s  %s\n", "metric", "median", "IQR/med", "unit")
	for _, name := range names {
		med, iqr := spread(values[name])
		fmt.Fprintf(stdout, "  %-30s %14.4g %8.4f  %s\n", name, med, iqr, units[name])
	}
	return 0
}

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no JSON result on the last line: %w", err)
	}
	return &res, nil
}
