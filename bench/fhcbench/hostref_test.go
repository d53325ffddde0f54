package main

import (
	"testing"
	"time"
)

// TestHostProbeSamplesUntilStopped runs the probe for a few periods: it
// must have timed the kernel at least once per period, each run taking
// CPU time, and finish must stop it, return the same samples when called
// again, and wait for the probe's goroutine, which the race detector
// checks.
func TestHostProbeSamplesUntilStopped(t *testing.T) {
	p := startHostProbe()
	time.Sleep(4 * refEvery)
	got := p.finish()
	if len(got) < 2 {
		t.Fatalf("%d samples in %v", len(got), 4*refEvery)
	}
	for i, s := range got {
		if s.took <= 0 {
			t.Fatalf("sample %d took %v", i, s.took)
		}
		if i > 0 && s.at <= got[i-1].at {
			t.Fatalf("sample %d at %v, after %v", i, s.at, got[i-1].at)
		}
	}
	if again := p.finish(); len(again) != len(got) {
		t.Fatalf("second finish returned %d samples, the first %d", len(again), len(got))
	}
}

func TestMeanTookWindow(t *testing.T) {
	msec := time.Millisecond
	samples := []refSample{{0, 1 * msec}, {50 * msec, 3 * msec}, {100 * msec, 5 * msec}, {150 * msec, 100 * msec}}
	if m, n := meanTook(samples, 50*msec, 150*msec); m != 4*msec || n != 2 {
		t.Fatalf("meanTook over [50ms, 150ms) = %v over %d samples, want 4ms over 2", m, n)
	}
	if m, n := meanTook(samples, time.Second, 2*time.Second); m != 0 || n != 0 {
		t.Fatalf("meanTook over an empty window = %v over %d samples", m, n)
	}
}

// TestRefKernelIsFixedWork checks that the kernel is a pure function of
// its input, so every run of the probe times the same work.
func TestRefKernelIsFixedWork(t *testing.T) {
	a, b := refKernel(refInput), refKernel(refInput)
	if a != b {
		t.Fatalf("refKernel gave %d, then %d", a, b)
	}
	other := append([]byte(nil), refInput...)
	other[len(other)/2] ^= 0xff
	if refKernel(other) == a {
		t.Fatal("refKernel ignores its input")
	}
}
