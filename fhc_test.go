package fhc

// Integration tests exercising the public API end to end, the way the
// examples and a downstream user would.

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// buildDemoSamples generates a small corpus through the public API.
func buildDemoSamples(t *testing.T) []Sample {
	t.Helper()
	specs := []ClassSpec{
		{Name: "GenomeAsm", Samples: 10},
		{Name: "FluidSolver", Samples: 10},
		{Name: "ChemKit", Samples: 10},
		{Name: "Miner", Samples: 6, Unknown: true},
	}
	corpus, err := GenerateCorpus(specs, CorpusOptions{Seed: 11})
	if err != nil {
		t.Fatalf("GenerateCorpus: %v", err)
	}
	samples, err := SamplesFromCorpus(corpus, 0)
	if err != nil {
		t.Fatalf("SamplesFromCorpus: %v", err)
	}
	return samples
}

func TestPublicAPIEndToEnd(t *testing.T) {
	samples := buildDemoSamples(t)
	split, err := SplitTwoPhase(samples, SplitOptions{Mode: PaperSplit, Seed: 3})
	if err != nil {
		t.Fatalf("SplitTwoPhase: %v", err)
	}
	var train, test []Sample
	for _, i := range split.TrainIdx {
		train = append(train, samples[i])
	}
	for _, i := range split.TestIdx {
		test = append(test, samples[i])
	}
	clf, err := Train(train, Config{Threshold: 0.35, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	report, err := clf.Evaluate(test)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if report.Accuracy < 0.6 {
		t.Fatalf("end-to-end accuracy %.3f too low\n%s", report.Accuracy, report.Format())
	}
	// Model round trip through the public API.
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	modelPath := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(modelPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(modelPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	for i := range test {
		if a, b := clf.Classify(&test[i]), loaded.Classify(&test[i]); a.Label != b.Label {
			t.Fatalf("prediction changed after save/load at %d", i)
		}
	}
}

func TestPublicAPIFileWorkflow(t *testing.T) {
	// Write a corpus tree, scan it back, classify a file loaded from disk.
	specs := []ClassSpec{
		{Name: "AppX", Samples: 8},
		{Name: "AppY", Samples: 8},
	}
	corpus, err := GenerateCorpus(specs, CorpusOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := corpus.WriteTree(dir); err != nil {
		t.Fatal(err)
	}
	samples, err := ScanTree(dir, 0)
	if err != nil {
		t.Fatalf("ScanTree: %v", err)
	}
	if len(samples) != len(corpus.Samples) {
		t.Fatalf("scanned %d samples, want %d", len(samples), len(corpus.Samples))
	}
	clf, err := Train(samples, Config{Threshold: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Classify one binary through the file-based entry point.
	s := corpus.Samples[0]
	path := filepath.Join(dir, s.Path())
	bin, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := dataset.FromBinary("", "", s.Exe, bin)
	if err != nil {
		t.Fatalf("FromBinary: %v", err)
	}
	pred := clf.Classify(&probe)
	if pred.Label != s.Class {
		t.Fatalf("training binary classified as %q (conf %.2f), want %q", pred.Label, pred.Confidence, s.Class)
	}
	// Save to a file and reload through LoadFile.
	modelPath := filepath.Join(dir, "model.json")
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(modelPath)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got := loaded.Classify(&probe); got.Label != s.Class {
		t.Fatalf("reloaded model classified %q, want %q", got.Label, s.Class)
	}
}

// TestPublicAPIContinuousLearning drives the continuous-learning loop
// through the public facade: an engine serving a model that does not
// know one class, harvesting of confident predictions and operator
// labels, a synchronous cycle, and the gated zero-downtime promotion.
func TestPublicAPIContinuousLearning(t *testing.T) {
	samples := buildDemoSamples(t)
	var known []Sample
	for _, s := range samples {
		if s.Class != "ChemKit" && s.Class != "Miner" {
			known = append(known, s)
		}
	}
	clf, err := Train(known, Config{Seed: 1, Threshold: 0.5})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	engine := NewEngine(clf, EngineOptions{})
	defer engine.Close()

	rt, err := NewRetrainer(engine, clf, RetrainOptions{
		Store:         RetrainStoreOptions{Cap: len(samples)},
		MinNewSamples: -1, // explicit cycles only
		MinConfidence: 0.5,
		Margin:        0.05,
		Train:         Config{Seed: 1, Threshold: 0.5},
	})
	if err != nil {
		t.Fatalf("NewRetrainer: %v", err)
	}
	defer rt.Close()

	for i := range samples {
		s := samples[i]
		if s.Class == "ChemKit" {
			rt.HarvestLabeled(&s, s.Class) // operator-confirmed ground truth
			continue
		}
		if s.Class == "Miner" {
			continue // stays foreign: nobody labels it
		}
		rt.ObservePrediction(&s, engine.Classify(&s))
	}

	res := rt.RunNow("kick")
	if res.Err != "" || !res.Promoted {
		t.Fatalf("cycle did not promote: %+v", res)
	}
	if engine.Stats().Swaps != 1 {
		t.Fatalf("swaps = %d, want 1", engine.Stats().Swaps)
	}
	correct := 0
	total := 0
	for i := range samples {
		if samples[i].Class != "ChemKit" {
			continue
		}
		total++
		s := samples[i]
		if engine.Classify(&s).Label == "ChemKit" {
			correct++
		}
	}
	if correct*2 < total {
		t.Fatalf("promoted model recognises %d/%d ChemKit samples", correct, total)
	}
	st := rt.Stats()
	if st.Promotions != 1 || st.Last == nil {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFacadeNamesDocumented keeps the facade from regrowing: every
// exported name in fhc.go must be named as fhc.Name by README.md,
// OPERATIONS.md, ARCHITECTURE.md, a file under examples/ or cmd/, or the
// package's Quick-start comment — or appear in the signature of a
// function that is itself so named. Tests do not count as users.
func TestFacadeNamesDocumented(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fhc.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	funcs := map[string]*ast.FuncType{}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				declared[d.Name.Name] = true
				funcs[d.Name.Name] = d.Type
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					declared[sp.Name.Name] = sp.Name.IsExported()
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						declared[n.Name] = n.IsExported()
					}
				}
			}
		}
	}

	ref := regexp.MustCompile(`\bfhc\.([A-Z][A-Za-z0-9_]*)`)
	named := map[string]bool{}
	scan := func(text string) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			named[m[1]] = true
		}
	}
	scan(file.Doc.Text()) // the Quick-start comment
	for _, doc := range []string{"README.md", "OPERATIONS.md", "ARCHITECTURE.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		scan(string(raw))
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || strings.HasSuffix(path, "_test.go") {
				return err
			}
			raw, err := os.ReadFile(path)
			scan(string(raw))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// A kept function's parameter and result types stay with it.
	used := map[string]bool{}
	for name, typ := range funcs {
		if !named[name] {
			continue
		}
		ast.Inspect(typ, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				used[id.Name] = true
			}
			return true
		})
	}

	var unused []string
	for name, exported := range declared {
		if exported && !named[name] && !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("%d facade names are named by no doc, example or command: %s",
			len(unused), strings.Join(unused, ", "))
	}
}

// testOnlyFuncs are the exported functions under internal/ and ssdeep/
// that only tests call, each kept for the test it serves.
var testOnlyFuncs = map[string]string{
	"repro/internal/synth.GenerateOne":     "one-class corpus fixture of the dataset ingestion tests",
	"repro/internal/synth.OpenSetManifest": "class layout of the openset statistical harness (stats_test.go)",
	"repro/internal/synth.TotalSamples":    "TestPaperManifestShape and TestGenerateArbitraryManifests",
}

// interfaceMethods are the exported methods under internal/ and ssdeep/
// whose name no non-test file selects, each kept for the interface it
// satisfies.
var interfaceMethods = map[string]string{
	"repro/internal/knn.Classifier.MarshalJSON":                      "json.Marshaler",
	"repro/internal/knn.Classifier.UnmarshalJSON":                    "json.Unmarshaler",
	"repro/internal/svm.Classifier.MarshalJSON":                      "json.Marshaler",
	"repro/internal/svm.Classifier.UnmarshalJSON":                    "json.Unmarshaler",
	"repro/internal/model.forestModel.MarshalJSON":                   "json.Marshaler",
	"repro/internal/model.knnModel.MarshalJSON":                      "json.Marshaler",
	"repro/internal/model.svmModel.MarshalJSON":                      "json.Marshaler",
	"repro/internal/tools/fhcvet/analysis.mappedImporter.ImportFrom": "types.ImporterFrom",
}

// testSupportPkgs hold helpers for other packages' tests; their exports
// are for tests by design.
var testSupportPkgs = []string{
	"repro/internal/cluster/clustertest",
	"repro/internal/tools/fhcvet/analysis/analysistest",
}

// basicTypes are the predeclared types a test-settable switch can have.
var basicTypes = map[string]bool{
	"bool": true, "string": true, "byte": true, "rune": true, "uintptr": true,
	"int": true, "int8": true, "int16": true, "int32": true, "int64": true,
	"uint": true, "uint8": true, "uint16": true, "uint32": true, "uint64": true,
	"float32": true, "float64": true, "complex64": true, "complex128": true,
}

// TestNoTestOnlyExports keeps production code from carrying functions,
// methods and switches only tests reach. Under internal/ and ssdeep/
// (testSupportPkgs aside), in non-test files:
//   - every top-level func must be referenced by a non-test file of the
//     root module or of bench/, outside the func's own body, or be an
//     exported func listed in testOnlyFuncs;
//   - every exported method must share its name with a member some such
//     file selects, or be listed in interfaceMethods;
//   - every unexported method must be selected, outside its own body, or
//     named by an interface, in a non-test file of its package;
//   - every package var of basic or func type declared without an
//     initializer must be assigned by some non-test file: one that only
//     tests set is a test switch.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var declared []string
	used := map[string]bool{}
	methods := map[string]string{} // pkg.Recv.Method -> Method, exported
	private := map[string]string{} // pkg.Recv.method -> pkg.method, unexported
	selected := map[string]bool{}  // exported method names, and pkg.method for unexported ones
	var switches []string          // pkg.var of uninitialised basic or func type
	assigned := map[string]bool{}
	for _, mod := range []struct{ dir, path string }{{".", "repro"}, {"bench", "repro/bench"}} {
		err := filepath.WalkDir(mod.dir, func(file string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if file != mod.dir && (file == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				return err
			}
			pkg := mod.path
			if dir := filepath.ToSlash(filepath.Dir(file)); dir != mod.dir {
				pkg += "/" + strings.TrimPrefix(dir, mod.dir+"/")
			}
			checked := (strings.HasPrefix(pkg, "repro/internal/") || pkg == "repro/ssdeep") &&
				!slices.Contains(testSupportPkgs, pkg)
			imports := map[string]string{}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = p
			}
			for _, decl := range f.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok || gen.Tok != token.VAR || !checked {
					continue
				}
				for _, spec := range gen.Specs {
					vs := spec.(*ast.ValueSpec)
					id, basic := vs.Type.(*ast.Ident)
					_, fn := vs.Type.(*ast.FuncType)
					if len(vs.Values) > 0 || !(fn || basic && basicTypes[id.Name]) {
						continue
					}
					for _, n := range vs.Names {
						if n.Name != "_" {
							switches = append(switches, pkg+"."+n.Name)
						}
					}
				}
			}
			// assign records a write to a package var: a bare name in
			// this package or a selector on an imported one.
			assign := func(x ast.Expr) {
				switch x := x.(type) {
				case *ast.Ident:
					assigned[pkg+"."+x.Name] = true
				case *ast.SelectorExpr:
					if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
						assigned[imports[id.Name]+"."+x.Sel.Name] = true
					}
				}
			}
			var self, selfMethod string // the func or method whose body is being visited
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					name := n.Name.Name
					switch {
					case !checked || name == "init" || name == "main" || name == "_":
					case n.Recv == nil:
						declared = append(declared, pkg+"."+name)
					default:
						recv := n.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						switch generic := recv.(type) {
						case *ast.IndexExpr:
							recv = generic.X
						case *ast.IndexListExpr:
							recv = generic.X
						}
						key := pkg + "." + recv.(*ast.Ident).Name + "." + name
						if ast.IsExported(name) {
							methods[key] = name
						} else {
							private[key] = pkg + "." + name
						}
					}
					if n.Recv != nil {
						ast.Inspect(n.Recv, visit)
					}
					ast.Inspect(n.Type, visit)
					if n.Body != nil {
						if n.Recv == nil {
							self = pkg + "." + name
						} else {
							selfMethod = name
						}
						ast.Inspect(n.Body, visit)
						self, selfMethod = "", ""
					}
					return false
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							selected[pkg+"."+id.Name] = true
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, x := range n.Lhs {
							assign(x)
						}
					}
				case *ast.IncDecStmt:
					assign(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						assign(n.Key)
						if n.Value != nil {
							assign(n.Value)
						}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						assign(n.X)
					}
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok && imports[id.Name] != "" {
						used[imports[id.Name]+"."+n.Sel.Name] = true
						return false
					}
					if name := n.Sel.Name; ast.IsExported(name) {
						selected[name] = true
					} else if name != selfMethod {
						selected[pkg+"."+name] = true
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if key := pkg + "." + n.Name; key != self {
						used[key] = true
					}
				}
				return true
			}
			ast.Inspect(f, visit)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unused []string
	for _, name := range declared {
		if !used[name] && testOnlyFuncs[name] == "" {
			unused = append(unused, name)
		}
	}
	for key, name := range methods {
		if !selected[name] && interfaceMethods[key] == "" {
			unused = append(unused, key)
		}
	}
	for key, name := range private {
		if !selected[name] {
			unused = append(unused, key)
		}
	}
	for _, name := range switches {
		if !assigned[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("%d funcs, methods and switches are reached only by tests; move them into a _test.go file, delete them, or list an exported func in testOnlyFuncs or an exported method in interfaceMethods: %s",
			len(unused), strings.Join(unused, ", "))
	}
	for name := range testOnlyFuncs {
		switch {
		case !slices.Contains(declared, name):
			t.Errorf("%s is not declared in a non-test file; drop it from testOnlyFuncs", name)
		case used[name]:
			t.Errorf("%s has a non-test caller; drop it from testOnlyFuncs", name)
		}
	}
	for key := range interfaceMethods {
		if name, ok := methods[key]; !ok || selected[name] {
			t.Errorf("%s is not an unselected exported method; drop it from interfaceMethods", key)
		}
	}
}
