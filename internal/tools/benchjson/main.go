// Command benchjson turns `go test -bench` text output into a stable
// JSON artifact (BENCH_fhc.json) so CI can archive per-commit
// benchmark numbers and trends are diffable without parsing test logs.
// It either runs the benchmarks itself (default: every package, one
// iteration — the compile-and-run smoke configuration CI uses) or
// parses a finished run from stdin with -stdin.
//
// With -compare OLD the command is the perf-trajectory gate: the fresh
// results are diffed against the committed baseline artifact and the
// exit status is non-zero when any gated benchmark's ns/op grew beyond
// -threshold (default 10%) or its allocs/op grew at all. -gate
// restricts the gate to an allowlist of package-qualified benchmark
// names; -skip exempts names from it. Each top-level alternative of
// -gate must match some benchmark of the fresh run, or the gate fails:
// a renamed or deleted benchmark cannot drop out of the allowlist
// unnoticed. Otherwise benchmarks present on only one side never fail
// the gate, so adding or retiring benchmarks is free.
//
// Output shape: one record per benchmark line, carrying the package
// ("pkg:" context lines), the benchmark's base name, the -cpu suffix,
// iteration count, and every reported metric keyed by its unit
// (ns/op, B/op, allocs/op, and any custom ReportMetric units).
//
// Concurrency contract: single-goroutine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Package    string             `json:"package"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the artifact root.
type Report struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

func main() {
	out := flag.String("o", "BENCH_fhc.json", "output path")
	stdin := flag.Bool("stdin", false, "parse a finished `go test -bench` run from stdin instead of running one")
	benchtime := flag.String("benchtime", "1x", "benchtime to run with (ignored with -stdin)")
	benchRe := flag.String("bench", ".", "benchmark regexp to run (ignored with -stdin)")
	compare := flag.String("compare", "", "baseline artifact to diff against; regressions fail the run")
	threshold := flag.Float64("threshold", 0.10, "tolerated fractional ns/op increase in -compare mode")
	gateExpr := flag.String("gate", "", "regexp allowlist of package-qualified benchmark names to gate (default: all shared)")
	skipExpr := flag.String("skip", "", "regexp of package-qualified benchmark names exempt from the gate")
	flag.Parse()

	var (
		text string
		err  error
	)
	if *stdin {
		raw, rerr := io.ReadAll(os.Stdin)
		text, err = string(raw), rerr
		*benchtime = "stdin" // the run chose its own benchtime; don't claim ours
	} else {
		text, err = runBenchmarks(*benchRe, *benchtime, flag.Args())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}

	report := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: *benchtime,
		Results:   parseBench(text),
	}
	if len(report.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results parsed")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: %d results -> %s\n", len(report.Results), *out)

	if *compare != "" {
		cfg := compareConfig{threshold: *threshold}
		if *gateExpr != "" {
			re, err := regexp.Compile(*gateExpr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: -gate: %v\n", err)
				os.Exit(1)
			}
			cfg.gate = re
		}
		if *skipExpr != "" {
			re, err := regexp.Compile(*skipExpr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: -skip: %v\n", err)
				os.Exit(1)
			}
			cfg.skip = re
		}
		if !runCompare(*compare, report, cfg) {
			os.Exit(1)
		}
	}
}

// runBenchmarks executes the benchmark smoke run and returns its
// combined text output. A non-zero exit is an error — a benchmark that
// cannot run once must fail the job, not silently vanish from the
// artifact.
func runBenchmarks(benchRe, benchtime string, patterns []string) (string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"test", "-short", "-run", "^$", "-bench", benchRe, "-benchtime", benchtime}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go test -bench: %v", err)
	}
	return string(out), nil
}

// parseBench extracts benchmark result lines from go test output,
// tracking "pkg:" context lines for package attribution.
func parseBench(text string) []Result {
	var results []Result
	pkg := ""
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = rest
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name iterations {value unit}... — anything shorter is a
		// header or a failure line.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name, procs := splitProcs(fields[0])
		r := Result{
			Package:    pkg,
			Name:       name,
			Procs:      procs,
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		results = append(results, r)
	}
	return results
}

// splitProcs separates the -N GOMAXPROCS suffix from a benchmark name.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name, 1
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil || procs <= 0 {
		return name, 1
	}
	return name[:i], procs
}
