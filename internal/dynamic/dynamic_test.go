package dynamic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProfileDeterministic(t *testing.T) {
	a := NewProfile("GROMACS", 1)
	b := NewProfile("GROMACS", 1)
	ta := a.Simulate(RunOptions{Seed: 5})
	tb := b.Simulate(RunOptions{Seed: 5})
	for m := range ta.Series {
		for i := range ta.Series[m] {
			if ta.Series[m][i] != tb.Series[m][i] {
				t.Fatalf("same class/seed produced different traces at metric %d step %d", m, i)
			}
		}
	}
}

func TestProfilesDifferAcrossClasses(t *testing.T) {
	a := NewProfile("GROMACS", 1).Simulate(RunOptions{Seed: 5})
	b := NewProfile("OpenFOAM", 1).Simulate(RunOptions{Seed: 5})
	fa, fb := Fingerprint(a), Fingerprint(b)
	if dist(fa, fb) < 0.1 {
		t.Fatalf("different classes produced near-identical fingerprints (dist %.4f)", dist(fa, fb))
	}
}

func TestTraceShape(t *testing.T) {
	tr := NewProfile("X", 2).Simulate(RunOptions{Steps: 200, Seed: 1})
	for m := Metric(0); m < NumMetrics; m++ {
		if len(tr.Series[m]) != 200 {
			t.Fatalf("metric %s has %d steps, want 200", m, len(tr.Series[m]))
		}
		for i, v := range tr.Series[m] {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("metric %s step %d = %v", m, i, v)
			}
		}
	}
}

func TestFingerprintSize(t *testing.T) {
	tr := NewProfile("X", 3).Simulate(RunOptions{Seed: 1})
	f := Fingerprint(tr)
	if len(f) != FingerprintSize {
		t.Fatalf("fingerprint has %d dims, want %d", len(f), FingerprintSize)
	}
}

func TestInputScaleChangesBehaviour(t *testing.T) {
	// The related-work weakness the paper cites: different inputs change
	// the fingerprint of the same application.
	p := NewProfile("VariableApp", 4)
	small := Fingerprint(p.Simulate(RunOptions{InputScale: 0.5, Seed: 9}))
	large := Fingerprint(p.Simulate(RunOptions{InputScale: 4.0, Seed: 9}))
	if dist(small, large) < 0.1 {
		t.Fatal("input scale had no effect on the fingerprint")
	}
	// Memory mean (metric Memory, stat 0) must grow with input.
	memIdx := int(Memory) * 7
	if large[memIdx] <= small[memIdx] {
		t.Fatalf("memory mean did not grow with input: %.3f vs %.3f", small[memIdx], large[memIdx])
	}
}

func TestNoiseBlursFingerprints(t *testing.T) {
	p := NewProfile("NoisyApp", 5)
	quiet1 := Fingerprint(p.Simulate(RunOptions{Seed: 1, Noise: 0}))
	quiet2 := Fingerprint(p.Simulate(RunOptions{Seed: 2, Noise: 0}))
	loud1 := Fingerprint(p.Simulate(RunOptions{Seed: 1, Noise: 0.5}))
	loud2 := Fingerprint(p.Simulate(RunOptions{Seed: 2, Noise: 0.5}))
	if dist(quiet1, quiet2) >= dist(loud1, loud2) {
		t.Fatalf("noise did not increase run-to-run variation: quiet %.4f, loud %.4f",
			dist(quiet1, quiet2), dist(loud1, loud2))
	}
}

func TestSameClassRunsCloserThanCrossClass(t *testing.T) {
	// The property the related work relies on — and that makes dynamic
	// classification possible at all under moderate noise.
	pa, pb := NewProfile("AppA", 6), NewProfile("AppB", 6)
	opts := func(seed uint64) RunOptions { return RunOptions{Seed: seed, Noise: 0.1, InputScale: 1} }
	a1, a2 := Fingerprint(pa.Simulate(opts(1))), Fingerprint(pa.Simulate(opts(2)))
	b1 := Fingerprint(pb.Simulate(opts(3)))
	if dist(a1, a2) >= dist(a1, b1) {
		t.Fatalf("within-class distance %.4f not below cross-class %.4f", dist(a1, a2), dist(a1, b1))
	}
}

func TestChannelStatsKnownValues(t *testing.T) {
	stats := channelStats([]float64{1, 1, 1, 1})
	if stats[0] != 1 || stats[1] != 0 {
		t.Fatalf("constant channel stats = %v", stats)
	}
	if stats[5] != 0 || stats[6] != 0 {
		t.Fatalf("constant channel autocorr/burstiness = %v", stats)
	}
	stats = channelStats([]float64{0, 2})
	if stats[0] != 1 || stats[1] != 1 {
		t.Fatalf("two-point stats = %v", stats)
	}
	if got := channelStats(nil); len(got) != 7 {
		t.Fatalf("empty channel stats = %v", got)
	}
}

// Property: fingerprints are finite for any option combination.
func TestFingerprintFiniteProperty(t *testing.T) {
	f := func(seed uint64, scaleSel, noiseSel uint8) bool {
		p := NewProfile("QuickApp", seed)
		tr := p.Simulate(RunOptions{
			Steps:      64,
			InputScale: 0.25 + float64(scaleSel)/64.0,
			Noise:      float64(noiseSel) / 256.0,
			Seed:       seed ^ 0xabc,
		})
		for _, v := range Fingerprint(tr) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func dist(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

func BenchmarkSimulate(b *testing.B) {
	p := NewProfile("Bench", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Simulate(RunOptions{Seed: uint64(i), Noise: 0.1})
	}
}

func BenchmarkFingerprint(b *testing.B) {
	tr := NewProfile("Bench", 1).Simulate(RunOptions{Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Fingerprint(tr)
	}
}
