package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"regexp/syntax"
	"slices"
	"sort"
)

// compareConfig parameterises the perf-trajectory gate.
type compareConfig struct {
	// threshold is the tolerated fractional ns/op increase (0.10 = 10%).
	threshold float64
	// gate, when non-nil, restricts the gate to benchmarks whose
	// package-qualified name matches — the warm-path allowlist. Nil
	// gates every benchmark present in both reports.
	gate *regexp.Regexp
	// skip, when non-nil, exempts matching benchmarks even if gated —
	// the escape hatch for benchmarks known to be environment-noisy.
	skip *regexp.Regexp
}

// delta is one benchmark's old-versus-new comparison on one metric.
type delta struct {
	Key    string
	Metric string
	Old    float64
	New    float64
}

// ratio returns new/old, treating an old value of zero as 1 when new is
// also zero (no change) and +Inf-like growth otherwise.
func (d delta) ratio() float64 {
	if d.Old == 0 {
		if d.New == 0 {
			return 1
		}
		return d.New // any growth from zero reads as the raw new value
	}
	return d.New / d.Old
}

// key renders the stable identity of a result: package-qualified
// benchmark name plus the -cpu suffix.
func key(r Result) string {
	return fmt.Sprintf("%s.%s-%d", r.Package, r.Name, r.Procs)
}

// loadReport reads a benchjson artifact from disk.
func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareReports diffs new against old under cfg and returns the
// regressions and improvements over the gated intersection, and how
// many results that intersection held. A benchmark regresses when its
// ns/op grows beyond the threshold or its allocs/op grows at all —
// allocation counts are deterministic, so any increase is a real code
// change, never noise.
func compareReports(old, cur Report, cfg compareConfig) (regressions, improvements []delta, compared int) {
	oldByKey := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		oldByKey[key(r)] = r
	}
	for _, r := range cur.Results {
		k := key(r)
		prev, ok := oldByKey[k]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		if cfg.gate != nil && !cfg.gate.MatchString(k) {
			continue
		}
		if cfg.skip != nil && cfg.skip.MatchString(k) {
			continue
		}
		compared++
		for _, metric := range []string{"ns/op", "allocs/op"} {
			oldV, okOld := prev.Metrics[metric]
			newV, okNew := r.Metrics[metric]
			if !okOld || !okNew {
				continue
			}
			d := delta{Key: k, Metric: metric, Old: oldV, New: newV}
			limit := oldV
			if metric == "ns/op" {
				limit = oldV * (1 + cfg.threshold)
			}
			switch {
			case newV > limit:
				regressions = append(regressions, d)
			case newV < oldV:
				improvements = append(improvements, d)
			}
		}
	}
	sort.Slice(regressions, func(i, j int) bool { return regressions[i].ratio() > regressions[j].ratio() })
	sort.Slice(improvements, func(i, j int) bool { return improvements[i].ratio() < improvements[j].ratio() })
	return regressions, improvements, compared
}

// gateAlternatives splits a gate expression into its top-level
// alternatives, one regexp per allowlist name. regexp/syntax factors
// common prefixes out of an alternation ("ab|ac" parses as
// "a(?:b|c)"), so an alternation that ends a concatenation is
// multiplied back out.
func gateAlternatives(gate *regexp.Regexp) []*regexp.Regexp {
	// gate compiled, so its source parses.
	re, _ := syntax.Parse(gate.String(), syntax.Perl)
	var split func(re *syntax.Regexp) []*syntax.Regexp
	split = func(re *syntax.Regexp) []*syntax.Regexp {
		var out []*syntax.Regexp
		switch last := len(re.Sub) - 1; {
		case re.Op == syntax.OpAlternate:
			for _, sub := range re.Sub {
				out = append(out, split(sub)...)
			}
		case re.Op == syntax.OpConcat && re.Sub[last].Op == syntax.OpAlternate:
			for _, tail := range split(re.Sub[last]) {
				out = append(out, &syntax.Regexp{Op: syntax.OpConcat, Flags: re.Flags,
					Sub: append(slices.Clone(re.Sub[:last]), tail)})
			}
		default:
			out = append(out, re)
		}
		return out
	}
	var alts []*regexp.Regexp
	for _, alt := range split(re) {
		alts = append(alts, regexp.MustCompile(alt.String()))
	}
	return alts
}

// unmatchedGates returns the top-level alternatives of gate that match
// no package-qualified benchmark name in cur: an allowlist entry that
// gates nothing, because its benchmark was renamed or deleted, or the
// run did not reach it.
func unmatchedGates(gate *regexp.Regexp, cur Report) []string {
	var unmatched []string
	for _, alt := range gateAlternatives(gate) {
		if !slices.ContainsFunc(cur.Results, func(r Result) bool { return alt.MatchString(key(r)) }) {
			unmatched = append(unmatched, alt.String())
		}
	}
	return unmatched
}

// runCompare executes the gate: diff cur against the baseline at
// oldPath, report both directions and the compared count (a run at
// another -cpu than the baseline's compares nothing), and return false
// on any regression or on a -gate alternative that matches no
// benchmark in cur.
func runCompare(oldPath string, cur Report, cfg compareConfig) bool {
	old, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
		return false
	}
	if cfg.gate != nil {
		if unmatched := unmatchedGates(cfg.gate, cur); len(unmatched) > 0 {
			for _, alt := range unmatched {
				fmt.Fprintf(os.Stderr, "benchjson: -gate alternative %q matches no benchmark in this run\n", alt)
			}
			return false
		}
	}
	regressions, improvements, compared := compareReports(old, cur, cfg)
	for _, d := range improvements {
		fmt.Printf("improved   %-60s %-10s %12.1f -> %12.1f (%.2fx)\n", d.Key, d.Metric, d.Old, d.New, d.ratio())
	}
	for _, d := range regressions {
		fmt.Printf("REGRESSION %-60s %-10s %12.1f -> %12.1f (%.2fx)\n", d.Key, d.Metric, d.Old, d.New, d.ratio())
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) against %s (ns/op threshold %+.0f%%, allocs/op threshold 0)\n",
			len(regressions), oldPath, cfg.threshold*100)
		return false
	}
	fmt.Printf("benchjson: no regressions against %s (%d gated results compared, %d improved)\n",
		oldPath, compared, len(improvements))
	return true
}
