package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func report(results ...Result) Report {
	return Report{Results: results}
}

func res(pkg, name string, ns, allocs float64) Result {
	return Result{
		Package: pkg, Name: name, Procs: 8, Iterations: 100,
		Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs},
	}
}

func TestCompareFlagsNsRegression(t *testing.T) {
	old := report(res("p", "BenchmarkHot", 1000, 3))
	cur := report(res("p", "BenchmarkHot", 1200, 3)) // +20% > 10%
	regs, imps, _ := compareReports(old, cur, compareConfig{threshold: 0.10})
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("want one ns/op regression, got regs=%v imps=%v", regs, imps)
	}
}

func TestCompareToleratesNsWithinThreshold(t *testing.T) {
	old := report(res("p", "BenchmarkHot", 1000, 3))
	cur := report(res("p", "BenchmarkHot", 1090, 3)) // +9% < 10%
	regs, _, _ := compareReports(old, cur, compareConfig{threshold: 0.10})
	if len(regs) != 0 {
		t.Fatalf("within-threshold drift flagged: %v", regs)
	}
}

func TestCompareAnyAllocRegressionFails(t *testing.T) {
	old := report(res("p", "BenchmarkHot", 1000, 0))
	cur := report(res("p", "BenchmarkHot", 900, 1)) // faster but allocates
	regs, _, _ := compareReports(old, cur, compareConfig{threshold: 0.10})
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("want one allocs/op regression, got %v", regs)
	}
}

func TestCompareReportsImprovements(t *testing.T) {
	old := report(res("p", "BenchmarkHot", 43000, 3))
	cur := report(res("p", "BenchmarkHot", 700, 0))
	regs, imps, _ := compareReports(old, cur, compareConfig{threshold: 0.10})
	if len(regs) != 0 || len(imps) != 2 {
		t.Fatalf("want two improvements, got regs=%v imps=%v", regs, imps)
	}
}

func TestCompareIgnoresUnsharedBenchmarks(t *testing.T) {
	old := report(res("p", "BenchmarkRetired", 10, 0))
	cur := report(res("p", "BenchmarkNew", 1e9, 100))
	regs, imps, _ := compareReports(old, cur, compareConfig{threshold: 0.10})
	if len(regs) != 0 || len(imps) != 0 {
		t.Fatalf("unshared benchmarks compared: regs=%v imps=%v", regs, imps)
	}
}

func TestCompareGateAndSkipAllowlist(t *testing.T) {
	old := report(
		res("p", "BenchmarkWarm", 1000, 0),
		res("p", "BenchmarkNoisy", 1000, 0),
		res("q", "BenchmarkOther", 1000, 0),
	)
	cur := report(
		res("p", "BenchmarkWarm", 5000, 0),
		res("p", "BenchmarkNoisy", 5000, 0),
		res("q", "BenchmarkOther", 5000, 0),
	)
	cfg := compareConfig{
		threshold: 0.10,
		gate:      regexp.MustCompile(`^p\.`),
		skip:      regexp.MustCompile(`Noisy`),
	}
	regs, _, _ := compareReports(old, cur, cfg)
	if len(regs) != 1 || regs[0].Key != "p.BenchmarkWarm-8" {
		t.Fatalf("gate/skip allowlist wrong: %v", regs)
	}
}

func TestCompareProcsDistinguished(t *testing.T) {
	old := report(res("p", "BenchmarkHot", 1000, 0))
	cur := Report{Results: []Result{{
		Package: "p", Name: "BenchmarkHot", Procs: 4, Iterations: 100,
		Metrics: map[string]float64{"ns/op": 9000, "allocs/op": 0},
	}}}
	regs, _, _ := compareReports(old, cur, compareConfig{threshold: 0.10})
	if len(regs) != 0 {
		t.Fatalf("different -cpu runs compared as one benchmark: %v", regs)
	}
}

// TestCompareCountsGatedResults: the count covers exactly the gated
// intersection — unshared, ungated and skipped results are not
// compared, and a result at another -cpu than the baseline's is
// unshared.
func TestCompareCountsGatedResults(t *testing.T) {
	old := report(
		res("p", "BenchmarkWarm", 1000, 0),
		res("p", "BenchmarkNoisy", 1000, 0),
		res("q", "BenchmarkOther", 1000, 0),
		res("p", "BenchmarkRetired", 1000, 0),
	)
	cur := report(
		res("p", "BenchmarkWarm", 1000, 0),
		res("p", "BenchmarkNoisy", 1000, 0),
		res("q", "BenchmarkOther", 1000, 0),
		res("p", "BenchmarkNew", 1000, 0),
	)
	cfg := compareConfig{threshold: 0.10, gate: regexp.MustCompile(`^p\.`), skip: regexp.MustCompile(`Noisy`)}
	if _, _, n := compareReports(old, cur, cfg); n != 1 {
		t.Fatalf("compared %d gated results, want 1", n)
	}
	other := cur.Results[0]
	other.Procs = 2
	if _, _, n := compareReports(old, report(other), cfg); n != 0 {
		t.Fatalf("a -cpu 2 result compared against a -cpu 8 baseline: %d", n)
	}
}

// TestRunComparePrintsCount: a gate run whose results share no key
// with the baseline passes, and says it compared nothing.
func TestRunComparePrintsCount(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	raw, err := json.Marshal(report(res("p", "BenchmarkHot", 1000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	slow := res("p", "BenchmarkHot", 23000, 50)
	slow.Procs = 2

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	ok := runCompare(base, report(slow), compareConfig{threshold: 0.10})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if !ok || !strings.Contains(string(out), "(0 gated results compared, 0 improved)") {
		t.Fatalf("runCompare = %v, output %q; want a pass that reports 0 compared", ok, out)
	}
}

// TestGateAlternatives: the gate splits into one regexp per top-level
// alternative, although regexp/syntax factors shared prefixes out of
// CI's allowlist; a bracketed or escaped "|", or one inside a group
// that does not end the expression, does not split.
func TestGateAlternatives(t *testing.T) {
	ci := `EngineThroughput/warm|OSA64|Levenshtein64|DamerauLevenshtein64|PredictProba|IndexQuery1000|ComparePrepared|ClassifyHTTPRawStream/1MiB|ClassifyHTTPHashFirstWarm`
	ciNames := []string{
		"EngineThroughput/warm", "OSA64", "Levenshtein64", "DamerauLevenshtein64", "PredictProba",
		"IndexQuery1000", "ComparePrepared", "ClassifyHTTPRawStream/1MiB", "ClassifyHTTPHashFirstWarm",
	}
	for _, c := range []struct {
		expr   string
		want   []string // the alternatives, as regexps
		probes []string // names each alternative must agree with want on
	}{
		{ci, ciNames, append(ciNames, "Compare", "ClassifyHTTP", "OSA", "x.BenchmarkOSA64-1")},
		{`p\.Bench(?:Warm|Cold)`, []string{`p\.BenchWarm`, `p\.BenchCold`}, []string{"p.BenchWarm", "p.BenchCold", "p.Bench"}},
		{`^p\.Bench(?:Warm|Cold)$`, []string{`^p\.Bench(?:Warm|Cold)$`}, []string{"p.BenchWarm", "p.BenchCold", "xp.BenchCold"}},
		{`Hot(Path)?|[|]x|a\|b`, []string{`Hot(Path)?`, `[|]x`, `a\|b`}, []string{"Hot", "HotPath", "|x", "a|b", "a", "b"}},
		{`Warm`, []string{`Warm`}, []string{"Warm", "Cold"}},
	} {
		alts := gateAlternatives(regexp.MustCompile(c.expr))
		if len(alts) != len(c.want) {
			t.Fatalf("%q split into %v, want %q", c.expr, alts, c.want)
		}
		for i, alt := range alts {
			want := regexp.MustCompile(c.want[i])
			for _, name := range c.probes {
				if alt.MatchString(name) != want.MatchString(name) {
					t.Fatalf("%q: alternative %d is %q, want %q (they differ on %q)", c.expr, i, alt, want, name)
				}
			}
		}
	}
}

// TestRunCompareFailsOnUnmatchedGate: an allowlist alternative that
// matches no benchmark of the fresh run fails the gate, even with no
// regression, and is named; one that matches passes.
func TestRunCompareFailsOnUnmatchedGate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "base.json")
	raw, err := json.Marshal(report(res("p", "BenchmarkHot", 1000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cur := report(res("p", "BenchmarkHot", 1000, 0), res("q", "BenchmarkColdPath", 1000, 0))
	capture := func(f func() bool) (bool, string) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr, stdout := os.Stderr, os.Stdout
		os.Stderr, os.Stdout = w, w
		ok := f()
		os.Stderr, os.Stdout = stderr, stdout
		w.Close()
		out, _ := io.ReadAll(r)
		return ok, string(out)
	}
	ok, out := capture(func() bool {
		return runCompare(base, cur, compareConfig{threshold: 0.10, gate: regexp.MustCompile(`Hot|ColdPath|Retired`)})
	})
	if ok || !strings.Contains(out, `"Retired" matches no benchmark`) || strings.Contains(out, `"Hot"`) {
		t.Fatalf("runCompare = %v, output %q; want a failure naming only Retired", ok, out)
	}
	ok, out = capture(func() bool {
		return runCompare(base, cur, compareConfig{threshold: 0.10, gate: regexp.MustCompile(`Hot|ColdPath`)})
	})
	if !ok {
		t.Fatalf("runCompare failed with every alternative matched: %q", out)
	}
}
