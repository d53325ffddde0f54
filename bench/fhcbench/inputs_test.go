package main

import (
	"bytes"
	"compress/flate"
	"debug/elf"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/httpserve"
	"repro/internal/serve"
)

func sums(g *gen, kind byte, n, size int) [][32]byte {
	out := make([][32]byte, n)
	for i := range out {
		out[i] = g.body(kind, uint64(i), size).sum()
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, kind := range []byte{kindCold, kindFresh, kindSetup} {
		a := sums(testGen(t, 42, 4*mib), kind, 64, 256<<10)
		b := sums(testGen(t, 42, 4*mib), kind, 64, 256<<10)
		c := sums(testGen(t, 43, 4*mib), kind, 64, 256<<10)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("kind %d body %d: same seed, different bytes", kind, i)
			}
			if a[i] == c[i] {
				t.Fatalf("kind %d body %d: seeds 42 and 43 gave the same bytes", kind, i)
			}
		}
	}
}

func TestBodiesPairwiseDistinct(t *testing.T) {
	g := testGen(t, 1, 4*mib)
	seen := map[[32]byte]bool{}
	// Every stream shares the one pool and base set; the nonce keeps
	// them apart. Small bodies keep the test fast: the property is about
	// the nonce and the window, not the size.
	for _, kind := range []byte{kindCold, kindFresh} {
		for i := range 5000 {
			s := g.body(kind, uint64(i), 80<<10).sum()
			if seen[s] {
				t.Fatalf("kind %d body %d repeats an earlier body", kind, i)
			}
			seen[s] = true
		}
	}
}

func TestBodiesAreServableELF(t *testing.T) {
	_, _, clf := testFixture(t)
	eng := serve.New(clf, serve.Options{})
	defer eng.Close()
	h := httpserve.New(eng, httpserve.Options{}).Handler()
	g := testGen(t, 3, 8*mib)
	for i := range 24 {
		size := []int{0, 64 << 10, mib, 4 * mib}[i%4]
		b := g.body(kindFresh, uint64(i), size)
		f, err := elf.NewFile(bytes.NewReader(b.bytes()))
		if err != nil {
			t.Fatalf("body %d (%d bytes) does not parse as ELF: %v", i, b.size(), err)
		}
		if _, err := f.Symbols(); err != nil {
			t.Fatalf("body %d: symbol table unreadable: %v", i, err)
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/classify?exe="+b.name, b.reader())
		req.Header.Set("Content-Type", "application/octet-stream")
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("body %d answered %d: %s", i, rec.Code, rec.Body.Bytes())
		}
	}
}

func TestTailIncompressible(t *testing.T) {
	g := testGen(t, 9, 8*mib)
	b := g.body(kindCold, 0, mib)
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(b.tail); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if r := float64(buf.Len()) / float64(len(b.tail)); r < 0.99 {
		t.Fatalf("tail compresses to %.3f of its size; a padded tail would hide the CTPH cost", r)
	}
	if b.size() != mib {
		t.Fatalf("cold body is %d bytes, want %d", b.size(), mib)
	}
}

func TestZipfMatchesTarget(t *testing.T) {
	const n, draws = 512, 200000
	r := rand.New(rand.NewPCG(1, 2))
	z := newZipf(r, n)
	counts := make([]float64, n)
	for range draws {
		counts[z.Uint64()]++
	}
	// Target CDF: P(k) proportional to (k+1)^-s over 0..n-1.
	norm := 0.0
	for k := range n {
		norm += math.Pow(float64(k+1), -zipfExponent)
	}
	want, got := 0.0, 0.0
	for k := range n {
		want += math.Pow(float64(k+1), -zipfExponent) / norm
		got += counts[k] / draws
		if math.Abs(want-got) > 0.01 {
			t.Fatalf("CDF at rank %d: got %.4f, want %.4f", k, got, want)
		}
	}
}

func TestLogUniformMatchesTarget(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = float64(logUniform(r, freshMin, freshMax))
	}
	sorted := append([]float64(nil), vals...)
	slices.Sort(sorted)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		want := freshMin * math.Pow(float64(freshMax)/freshMin, q)
		got := percentile(sorted, 100*q)
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("quantile %.2f: got %.0f, want %.0f", q, got, want)
		}
	}
}
