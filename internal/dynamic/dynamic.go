// Package dynamic simulates the dynamic-analysis side of the paper's
// future work (§6): "combine static binary analysis with analysis of
// dynamic execution behavior". It models the job-execution fingerprints
// of the paper's related work — IPM communication/computation profiles
// (Peisert 2010), Taxonomist's per-metric statistical features (Ates et
// al. 2018) and performance-counter clustering (Ramos et al. 2019) — and
// reproduces their documented weakness: fingerprints vary with input size
// and system noise, which is why the paper argues static fuzzy-hash
// classification should precede or complement them.
//
// An application class owns an execution profile (phase structure and
// per-metric amplitudes derived from its identity). One execution of the
// application yields a Trace (multichannel time series) whose shape
// depends on the profile, the input scale of that particular run, and
// system noise. Fingerprint reduces a trace to per-metric statistical
// features, the representation the related work feeds to classifiers.
//
// Concurrency contract: simulation is deterministic for a given seed and
// single-goroutine; generated profiles, traces and fingerprints are
// plain values, safe to read concurrently once built.
package dynamic

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Metric enumerates the resource channels a monitored job exposes.
type Metric int

// The monitored channels.
const (
	CPU Metric = iota
	Memory
	IORead
	IOWrite
	MPIComm
	Flops
	NumMetrics
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case IORead:
		return "io-read"
	case IOWrite:
		return "io-write"
	case MPIComm:
		return "mpi-comm"
	case Flops:
		return "flops"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Profile is the execution behaviour of one application class.
type Profile struct {
	// phases partition a run into startup / iterative compute / IO burst
	// segments with per-metric levels.
	phases []phase
	// ioPeriod spaces periodic IO bursts (checkpointing).
	ioPeriod int
	// commRatio is the communication/computation balance.
	commRatio float64
	// memSlope lets memory grow during the run (in-core accumulation).
	memSlope float64
}

// phase is one execution segment.
type phase struct {
	weight float64 // fraction of the run
	level  [NumMetrics]float64
}

// NewProfile derives the execution profile of an application class from
// its name. Two runs of the same class share a profile; two classes
// almost surely do not.
func NewProfile(class string, seed uint64) *Profile {
	src := rng.New(seed).Child("dynamic-profile:" + class)
	p := &Profile{
		ioPeriod:  src.IntRange(12, 40),
		commRatio: src.Float64(),
		memSlope:  src.Float64() * 0.5,
	}
	nPhases := src.IntRange(2, 5)
	for i := 0; i < nPhases; i++ {
		ph := phase{weight: 0.2 + src.Float64()}
		ph.level[CPU] = 0.3 + 0.7*src.Float64()
		ph.level[Memory] = 0.1 + 0.8*src.Float64()
		ph.level[IORead] = src.Float64() * 0.6
		ph.level[IOWrite] = src.Float64() * 0.5
		ph.level[MPIComm] = p.commRatio * (0.2 + 0.8*src.Float64())
		ph.level[Flops] = ph.level[CPU] * (0.4 + 0.6*src.Float64())
		p.phases = append(p.phases, ph)
	}
	// Normalise phase weights.
	total := 0.0
	for _, ph := range p.phases {
		total += ph.weight
	}
	for i := range p.phases {
		p.phases[i].weight /= total
	}
	return p
}

// Trace is one execution's multichannel time series.
type Trace struct {
	// Series holds NumMetrics channels of equal length.
	Series [NumMetrics][]float64
}

// RunOptions parameterise one simulated execution.
type RunOptions struct {
	// Steps is the trace length; default 128.
	Steps int
	// InputScale models the job's input size (1.0 = the profile's
	// nominal input). Different inputs stretch compute phases and shift
	// amplitudes — the behaviour change the paper's related work
	// struggles with.
	InputScale float64
	// Noise is the system-noise amplitude (0 = quiet machine).
	Noise float64
	// Seed individualises the run.
	Seed uint64
}

// Simulate produces one execution trace of the profile.
func (p *Profile) Simulate(opt RunOptions) *Trace {
	if opt.Steps <= 0 {
		opt.Steps = 128
	}
	if opt.InputScale <= 0 {
		opt.InputScale = 1
	}
	src := rng.New(opt.Seed).Child("dynamic-run")
	t := &Trace{}
	for m := range t.Series {
		t.Series[m] = make([]float64, opt.Steps)
	}
	// Larger inputs stretch the compute phases: phase boundaries move.
	stretch := math.Pow(opt.InputScale, 0.7)
	for step := 0; step < opt.Steps; step++ {
		pos := float64(step) / float64(opt.Steps)
		ph := p.phaseAt(progressWithStretch(pos, stretch))
		for m := Metric(0); m < NumMetrics; m++ {
			v := ph.level[m]
			switch m {
			case Memory:
				// Memory accumulates over the run and scales with input.
				v = (v + p.memSlope*pos) * opt.InputScale
			case IORead, IOWrite:
				// Periodic checkpoint bursts.
				if step%p.ioPeriod < 2 {
					v += 0.8
				}
				v *= math.Sqrt(opt.InputScale)
			case MPIComm:
				// Communication fraction grows with scale imbalance.
				v *= 1 + 0.2*(opt.InputScale-1)
			}
			// System noise plus occasional interference spikes.
			v += src.NormFloat64() * opt.Noise
			if opt.Noise > 0 && src.Float64() < 0.01 {
				v += src.Float64() * opt.Noise * 8
			}
			if v < 0 {
				v = 0
			}
			t.Series[m][step] = v
		}
	}
	return t
}

// phaseAt maps run progress in [0,1) to its phase.
func (p *Profile) phaseAt(pos float64) *phase {
	acc := 0.0
	for i := range p.phases {
		acc += p.phases[i].weight
		if pos < acc {
			return &p.phases[i]
		}
	}
	return &p.phases[len(p.phases)-1]
}

// progressWithStretch warps run progress so larger inputs spend
// proportionally longer in later (compute) phases.
func progressWithStretch(pos, stretch float64) float64 {
	return math.Pow(pos, 1/stretch)
}

// FingerprintSize is the dimensionality of a fingerprint: per metric the
// mean, standard deviation, 10th/50th/90th percentile, lag-1
// autocorrelation and burstiness.
const FingerprintSize = int(NumMetrics) * 7

// Fingerprint reduces a trace to Taxonomist-style statistical features.
func Fingerprint(t *Trace) []float64 {
	out := make([]float64, 0, FingerprintSize)
	for m := Metric(0); m < NumMetrics; m++ {
		out = append(out, channelStats(t.Series[m])...)
	}
	return out
}

// channelStats computes the seven per-channel statistics.
func channelStats(xs []float64) []float64 {
	n := float64(len(xs))
	if n == 0 {
		return make([]float64, 7)
	}
	mean := 0.0
	for _, v := range xs {
		mean += v
	}
	mean /= n
	variance := 0.0
	for _, v := range xs {
		d := v - mean
		variance += d * d
	}
	variance /= n
	std := math.Sqrt(variance)

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pct := func(p float64) float64 {
		idx := int(p * (n - 1))
		return sorted[idx]
	}

	// Lag-1 autocorrelation.
	auto := 0.0
	if variance > 1e-12 && len(xs) > 1 {
		for i := 1; i < len(xs); i++ {
			auto += (xs[i-1] - mean) * (xs[i] - mean)
		}
		auto /= (n - 1) * variance
	}

	// Burstiness: fraction of steps more than two sigma above the mean.
	bursts := 0.0
	if std > 1e-12 {
		for _, v := range xs {
			if v > mean+2*std {
				bursts++
			}
		}
		bursts /= n
	}
	return []float64{mean, std, pct(0.10), pct(0.50), pct(0.90), auto, bursts}
}
