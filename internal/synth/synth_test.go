package synth

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/extract"
	"repro/ssdeep"
)

func TestPaperManifestShape(t *testing.T) {
	specs := PaperManifest()
	if len(specs) != 92 {
		t.Fatalf("manifest has %d classes, want 92", len(specs))
	}
	known, unknown := 0, 0
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate class name %q", s.Name)
		}
		names[s.Name] = true
		if s.Unknown {
			unknown++
		} else {
			known++
		}
	}
	if known != 73 || unknown != 19 {
		t.Fatalf("known/unknown = %d/%d, want 73/19", known, unknown)
	}
}

func TestPaperManifestUnknownCounts(t *testing.T) {
	// Table 3 counts must be preserved exactly.
	want := map[string]int{
		"Schrodinger": 195, "QuantumESPRESSO": 178, "SAMtools": 108,
		"MCL": 52, "BLAST": 52, "FASTA": 48, "MolProbity": 39,
		"AUGUSTUS": 36, "HISAT2": 30, "OpenMalaria": 25, "Gurobi": 20,
		"Kraken": 18, "METIS": 18, "CCP4": 9, "TM-align": 9,
		"ClustalW2": 4, "dssp": 4, "libxc": 4, "CHARMM": 3,
	}
	total := 0
	for _, s := range PaperManifest() {
		if !s.Unknown {
			continue
		}
		if want[s.Name] != s.Samples {
			t.Errorf("unknown class %s: samples %d, want %d", s.Name, s.Samples, want[s.Name])
		}
		total += s.Samples
	}
	if total != 852 {
		t.Errorf("unknown sample total = %d, want 852 (Table 3)", total)
	}
}

func TestPaperManifestTotalNearPaper(t *testing.T) {
	total := TotalSamples(PaperManifest())
	// The paper has 5333 samples; shaping into versions x executables
	// rounds counts, so allow 3% slack.
	if total < 5173 || total > 5493 {
		t.Fatalf("paper manifest generates %d samples, want about 5333", total)
	}
}

func TestPaperManifestGenomePairs(t *testing.T) {
	specs := PaperManifest()
	genomeOf := map[string]string{}
	offsetOf := map[string]int{}
	for _, s := range specs {
		genomeOf[s.Name] = s.genomeName()
		offsetOf[s.Name] = s.VersionOffset
	}
	if genomeOf["CellRanger"] != genomeOf["Cell-Ranger"] {
		t.Error("CellRanger and Cell-Ranger do not share a genome")
	}
	if genomeOf["Augustus"] != genomeOf["AUGUSTUS"] {
		t.Error("Augustus and AUGUSTUS do not share a genome")
	}
	if offsetOf["CellRanger"] == offsetOf["Cell-Ranger"] {
		t.Error("shared-genome classes must use distinct version windows")
	}
}

func TestShapeClass(t *testing.T) {
	cases := []struct {
		spec ClassSpec
		v, e int
	}{
		{ClassSpec{Samples: 3}, 3, 1},
		{ClassSpec{Samples: 5}, 5, 1},
		{ClassSpec{Samples: 8}, 8, 1},
		{ClassSpec{Samples: 1}, 3, 1}, // minimum of 3 samples
		{ClassSpec{Samples: 12}, 3, 4},
		{ClassSpec{Versions: []string{"a", "b", "c"}, Exes: []string{"x", "y"}}, 3, 2},
	}
	for _, c := range cases {
		v, e := shapeClass(&c.spec)
		if v != c.v || e != c.e {
			t.Errorf("shapeClass(%+v) = (%d,%d), want (%d,%d)", c.spec, v, e, c.v, c.e)
		}
	}
	// Large classes must land close to the target.
	big := ClassSpec{Samples: 878}
	v, e := shapeClass(&big)
	if v < 3 || v > 8 {
		t.Errorf("big class versions = %d, want 3..8", v)
	}
	if got := v * e; got < 850 || got > 906 {
		t.Errorf("big class yields %d samples, want about 878", got)
	}
}

func smallCorpus(t *testing.T, seed uint64) *Corpus {
	t.Helper()
	specs := SmallManifest(6, 2, 12)
	c, err := Generate(specs, Options{Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return c
}

func TestGenerateDeterministic(t *testing.T) {
	a := smallCorpus(t, 7)
	b := smallCorpus(t, 7)
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if !bytes.Equal(a.Samples[i].Binary, b.Samples[i].Binary) {
			t.Fatalf("sample %d (%s) differs between runs", i, a.Samples[i].Path())
		}
	}
	c := smallCorpus(t, 8)
	if bytes.Equal(a.Samples[0].Binary, c.Samples[0].Binary) {
		t.Error("different seeds produced identical first binaries")
	}
}

func TestGeneratedBinariesAreValidELF(t *testing.T) {
	c := smallCorpus(t, 1)
	if len(c.Samples) == 0 {
		t.Fatal("no samples generated")
	}
	for i := range c.Samples {
		s := &c.Samples[i]
		if !extract.IsELF(s.Binary) {
			t.Fatalf("sample %s is not ELF", s.Path())
		}
		syms, err := extract.GlobalSymbols(s.Binary)
		if err != nil {
			t.Fatalf("sample %s: %v", s.Path(), err)
		}
		if len(syms) < 10 {
			t.Fatalf("sample %s has only %d global symbols", s.Path(), len(syms))
		}
		libs, err := extract.NeededLibraries(s.Binary)
		if err != nil || len(libs) == 0 {
			t.Fatalf("sample %s: needed libs = %v, err %v", s.Path(), libs, err)
		}
	}
}

func TestVelvetMatchesTable1(t *testing.T) {
	specs := PaperManifest()
	var velvet ClassSpec
	for _, s := range specs {
		if s.Name == "Velvet" {
			velvet = s
		}
	}
	samples, err := GenerateOne(velvet, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("Velvet has %d samples, want 6 (3 versions x 2 executables)", len(samples))
	}
	versions := map[string]map[string]bool{}
	for i := range samples {
		s := &samples[i]
		if versions[s.Version] == nil {
			versions[s.Version] = map[string]bool{}
		}
		versions[s.Version][s.Exe] = true
	}
	for _, v := range []string{"1.2.10-GCC-10.3.0-mt-kmer_191", "1.2.10-goolf-1.4.10", "1.2.10-goolf-1.7.20"} {
		if !versions[v]["velveth"] || !versions[v]["velvetg"] {
			t.Errorf("version %s missing velveth/velvetg: %v", v, versions[v])
		}
	}
}

// symbolDigest fuzzy-hashes the nm-style view of a sample.
func symbolDigest(t *testing.T, bin []byte) ssdeep.Digest {
	t.Helper()
	text, err := extract.SymbolsText(bin)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ssdeep.HashBytes(text)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWithinClassSimilarityExceedsCrossClass(t *testing.T) {
	specs := []ClassSpec{
		{Name: "AppA", Samples: 6},
		{Name: "AppB", Samples: 6},
	}
	c, err := Generate(specs, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var aDigests, bDigests []ssdeep.Digest
	for i := range c.Samples {
		d := symbolDigest(t, c.Samples[i].Binary)
		if c.Samples[i].Class == "AppA" {
			aDigests = append(aDigests, d)
		} else {
			bDigests = append(bDigests, d)
		}
	}
	within := ssdeep.Compare(aDigests[0], aDigests[1])
	cross := 0
	for _, da := range aDigests {
		for _, db := range bDigests {
			if s := ssdeep.Compare(da, db); s > cross {
				cross = s
			}
		}
	}
	if within <= cross {
		t.Fatalf("within-class symbol similarity %d not above cross-class max %d", within, cross)
	}
	if within < 40 {
		t.Errorf("within-class symbol similarity %d is too low for version neighbours", within)
	}
}

func TestSharedGenomeClassesAreSimilar(t *testing.T) {
	specs := []ClassSpec{
		{Name: "Augustus", Genome: "augustus", Samples: 4},
		{Name: "AUGUSTUS", Genome: "augustus", Samples: 4, Unknown: true, VersionOffset: 5},
		{Name: "Other", Samples: 4},
	}
	c, err := Generate(specs, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	byClass := map[string][]ssdeep.Digest{}
	for i := range c.Samples {
		s := &c.Samples[i]
		byClass[s.Class] = append(byClass[s.Class], symbolDigest(t, s.Binary))
	}
	pairMax := func(a, b []ssdeep.Digest) int {
		best := 0
		for _, da := range a {
			for _, db := range b {
				if s := ssdeep.Compare(da, db); s > best {
					best = s
				}
			}
		}
		return best
	}
	twin := pairMax(byClass["Augustus"], byClass["AUGUSTUS"])
	other := pairMax(byClass["Augustus"], byClass["Other"])
	if twin <= other {
		t.Fatalf("shared-genome similarity %d not above unrelated-class similarity %d", twin, other)
	}
	if twin < 30 {
		t.Errorf("shared-genome twin similarity %d too low to reproduce the paper's confusion", twin)
	}
}

func TestStrippedFraction(t *testing.T) {
	specs := []ClassSpec{{Name: "AppS", Samples: 40}}
	c, err := Generate(specs, Options{Seed: 5, StrippedFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	stripped := 0
	for i := range c.Samples {
		s := &c.Samples[i]
		_, err := extract.GlobalSymbols(s.Binary)
		isStripped := errors.Is(err, extract.ErrNoSymbolTable)
		if err != nil && !isStripped {
			t.Fatal(err)
		}
		if isStripped != s.Stripped {
			t.Fatalf("sample %s stripped flag %v but binary says %v", s.Path(), s.Stripped, isStripped)
		}
		if s.Stripped {
			stripped++
		}
	}
	if stripped < 5 || stripped > 35 {
		t.Errorf("stripped %d of %d samples, want about half", stripped, len(c.Samples))
	}
}

func TestWriteTree(t *testing.T) {
	dir := t.TempDir()
	c := smallCorpus(t, 9)
	if err := c.WriteTree(dir); err != nil {
		t.Fatalf("WriteTree: %v", err)
	}
	// Every sample must exist at Class/Version/Exe with identical bytes.
	for i := range c.Samples {
		s := &c.Samples[i]
		got, err := os.ReadFile(filepath.Join(dir, s.Path()))
		if err != nil {
			t.Fatalf("reading %s: %v", s.Path(), err)
		}
		if !bytes.Equal(got, s.Binary) {
			t.Fatalf("%s content mismatch after WriteTree", s.Path())
		}
	}
}

func TestExecutableNamesUniqueWithinClass(t *testing.T) {
	// Large classes generate many tool names; every Class/Version/Exe
	// path must stay unique (duplicates would overwrite in WriteTree).
	c, err := Generate([]ClassSpec{{Name: "ManyTools", Samples: 600}}, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	for i := range c.Samples {
		p := c.Samples[i].Path()
		if paths[p] {
			t.Fatalf("duplicate install path %s", p)
		}
		paths[p] = true
	}
}

func TestVersionEvolutionChangesBinary(t *testing.T) {
	specs := []ClassSpec{{Name: "Evolver", Samples: 6}}
	c, err := Generate(specs, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Samples) < 2 {
		t.Fatal("need at least two versions")
	}
	if bytes.Equal(c.Samples[0].Binary, c.Samples[1].Binary) {
		t.Error("consecutive versions are byte-identical; mutation model inactive")
	}
	if c.Samples[0].Version == c.Samples[1].Version {
		t.Error("consecutive samples share a version label")
	}
}

func TestSmallManifestCaps(t *testing.T) {
	specs := SmallManifest(4, 2, 10)
	if len(specs) != 6 {
		t.Fatalf("SmallManifest returned %d specs, want 6", len(specs))
	}
	for _, s := range specs {
		if s.Samples > 10 && len(s.Versions) == 0 {
			t.Errorf("class %s exceeds cap: %d", s.Name, s.Samples)
		}
	}
}

func BenchmarkGenerateClass(b *testing.B) {
	spec := ClassSpec{Name: "Bench", Samples: 12}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateOne(spec, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
