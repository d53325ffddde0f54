package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCheckMetricDocs pins the metric-docs cross-check's token rules
// on a two-file module: a registered series and a family wildcard over
// registered series pass, an unregistered name is reported once, and a
// Go file name that starts with fhc_ is not a series at all.
func TestCheckMetricDocs(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("reg.go", `package x

func register(reg interface{ Counter(name, help string) }) {
	reg.Counter("fhc_http_requests_total", "Requests.")
	reg.Counter("fhc_engine_swaps_total", "Swaps.")
}
`)
	write("doc.md", "`fhc_http_requests_total` counts requests; the fhc_engine_* family;\n"+
		"fhc_engine_batch_max, then fhc_engine_batch_max again;\n"+
		"TestNoTestOnlyExports (fhc_test.go) guards exports.\n")
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	problems := checkMetricDocs(root, out)
	report, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	want := "doc.md: doc rot: fhc_engine_batch_max is not a metric the code registers [metricreg]\n"
	if problems != 1 || string(report) != want {
		t.Fatalf("checkMetricDocs = %d problems, report %q; want 1 and %q", problems, report, want)
	}
}
