// Command fhcvet is the repository's invariant checker: a go vet
// -vettool multichecker bundling the four project-specific analyzers
// (atomicfield, lockhold, hotpath, metricreg) built on the in-repo
// analysis framework, with no dependency outside the standard library.
//
// It runs in two modes:
//
//   - as a vet tool: go vet -vettool=$(which fhcvet) ./...
//     cmd/go probes it with -V=full and -flags, then invokes it once
//     per package with a JSON config; diagnostics land on stderr and
//     cross-package facts travel through cmd/go's .vetx files;
//   - standalone: fhcvet [packages] (default ./...) first runs the
//     whole-repo checks that need sight beyond one package — every
//     fhc_* metric token in the repository's markdown must name a
//     series the code actually registers — then re-executes itself
//     through go vet -vettool for the per-package analyzers.
//
// Exit status: 0 clean, 1 tool failure, 2 findings (vet convention).
//
// Concurrency contract: single-goroutine per invocation; cmd/go
// parallelises by running one process per package.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/tools/fhcvet/analysis"
	"repro/internal/tools/fhcvet/atomicfield"
	"repro/internal/tools/fhcvet/hotpath"
	"repro/internal/tools/fhcvet/lockhold"
	"repro/internal/tools/fhcvet/metricreg"
	"repro/internal/tools/mdscan"
)

var analyzers = []*analysis.Analyzer{
	atomicfield.Analyzer,
	lockhold.Analyzer,
	hotpath.Analyzer,
	metricreg.Analyzer,
}

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "-V":
			analysis.PrintVersion(os.Stdout)
			return
		case a == "-flags":
			analysis.PrintFlags(os.Stdout, analyzers)
			return
		case a == "-h" || a == "-help" || a == "--help":
			usage()
			return
		}
	}
	// Invoked by cmd/go: the unit config is the single non-flag
	// argument, a *.cfg path.
	for _, a := range args {
		if strings.HasSuffix(a, ".cfg") {
			os.Exit(analysis.RunUnit(a, analyzers))
		}
	}
	os.Exit(standalone(args))
}

func usage() {
	fmt.Println("usage: fhcvet [packages]  (standalone: metric-docs cross-check, then go vet -vettool=self)")
	fmt.Println("       go vet -vettool=$(which fhcvet) [packages]")
	fmt.Println()
	fmt.Println("analyzers:")
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Printf("  %-12s %s\n", a.Name, doc)
	}
}

// standalone runs the whole-repo docs cross-check and then delegates
// the per-package analyzers to go vet with this binary as the tool.
func standalone(args []string) int {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fhcvet: %v\n", err)
		return 1
	}
	problems := checkMetricDocs(root, os.Stderr)

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fhcvet: %v\n", err)
		return 1
	}
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Dir = root
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if _, ok := err.(*exec.ExitError); ok {
			return 2
		}
		fmt.Fprintf(os.Stderr, "fhcvet: running go vet: %v\n", err)
		return 1
	}
	if problems > 0 {
		return 2
	}
	return 0
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above working directory")
		}
		dir = parent
	}
}

// metricToken matches fhc_* series references in markdown, including
// the trailing wildcard of family references like fhc_engine_*.
var metricToken = regexp.MustCompile(`\bfhc_[a-z0-9_]*\*?`)

// checkMetricDocs verifies that every fhc_* token the repository's
// markdown mentions names a metric the code registers (exactly, as a
// histogram-derived series, or as a family prefix). This is the half
// of the metricreg contract that needs whole-repo sight: docs rot
// quietly when a metric is renamed in code.
func checkMetricDocs(root string, out *os.File) int {
	names, err := registeredNames(root)
	if err != nil {
		fmt.Fprintf(out, "fhcvet: collecting metric names: %v\n", err)
		return 1
	}
	problems := 0
	for _, md := range markdownFiles(root) {
		raw, err := os.ReadFile(md)
		if err != nil {
			fmt.Fprintf(out, "fhcvet: %v\n", err)
			problems++
			continue
		}
		doc := mdscan.CodeAndProse(string(raw))
		reported := map[string]bool{}
		for _, loc := range metricToken.FindAllStringIndex(doc, -1) {
			tok := doc[loc[0]:loc[1]]
			// A token followed by ".go" is a file name, like fhc_test.go.
			if strings.HasPrefix(doc[loc[1]:], ".go") || reported[tok] || metricreg.KnownSeries(tok, names) {
				continue
			}
			reported[tok] = true
			rel, _ := filepath.Rel(root, md)
			fmt.Fprintf(out, "%s: doc rot: %s is not a metric the code registers [metricreg]\n", rel, tok)
			problems++
		}
	}
	return problems
}

// registeredNames sweeps the module's non-test Go files for metric
// registrations, syntactically (metricreg.CollectNames).
func registeredNames(root string) (map[string]string, error) {
	names := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		metricreg.CollectNames(f, names)
		return nil
	})
	return names, err
}

// markdownFiles lists the repository's markdown, skipping hidden
// directories and testdata.
func markdownFiles(root string) []string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	return files
}
