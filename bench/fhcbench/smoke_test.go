package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds the
// harness to.
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload of BENCHMARK.json for one second at small
// scale, untraced and traced, through the harness binary, and checks that
// each prints every metric the spec names, with its unit, and that no job
// failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fhc fleets")
	}
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	work := t.TempDir()
	bin := filepath.Join(work, "fhcbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				cmd := exec.Command(bin, "--workload", w.Name, "--seed", "1", "--seconds", "1", "--trace", trace,
					"--scale", "small", "--root", "../..", "--work", work)
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout.Bytes(), stderr.Bytes())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, stdout.Bytes())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, stdout.Bytes())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == "1" {
					if r := res.Metrics["fail_ratio"].Value; r != 0 {
						t.Errorf("fail_ratio %g, want 0", r)
					}
					if r := res.Metrics["trace.stage_sum_ratio"].Value; r < 0.9 || r > 1.1 {
						t.Errorf("trace.stage_sum_ratio %.3f: the stage split misses the handler's time", r)
					}
					if _, err := os.Stat(filepath.Join(work, "out", "trace.json")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}
