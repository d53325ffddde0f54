package openset

import (
	"fmt"
	"math"
	"sort"
)

// CalibrateOptions tunes the abstention budget.
type CalibrateOptions struct {
	// Quantile is the per-class floor quantile over correctly-
	// classified holdout samples: floors are set so that at most this
	// fraction of them would abstain, which bounds the closed-set
	// accuracy the calibration may cost. Default 0.01.
	Quantile float64
	// MinPerClass is the minimum number of correct holdout samples a
	// class needs for per-class floors; below it the class uses the
	// global floors. Default 8.
	MinPerClass int
	// Threshold is the raw confidence threshold the serving model
	// applies; it is recorded in the calibration so Decide and the
	// drift baseline agree with the closed-set path.
	Threshold float64
	// EvidenceSlack is a guard band subtracted from the quantile
	// evidence floors (similarity points, clamped at 0): ssdeep
	// similarity drifts several points across version evolution the
	// holdout cannot cover, and a floor set exactly at the holdout
	// quantile would abstain on legitimate new versions. Novel classes
	// sit far below the floors, so the band costs little recall.
	// Default 10; negative disables the band.
	EvidenceSlack float64
}

func (o CalibrateOptions) withDefaults() CalibrateOptions {
	if o.Quantile == 0 {
		o.Quantile = 0.01
	}
	if o.MinPerClass == 0 {
		o.MinPerClass = 8
	}
	if o.EvidenceSlack == 0 {
		o.EvidenceSlack = 10
	}
	if o.EvidenceSlack < 0 {
		o.EvidenceSlack = 0
	}
	return o
}

// Calibrate tunes a Calibration on frozen holdout data: probas[i] is
// sample i's model probability vector and evidence[i] its per-class
// distance-evidence vector, both in classes order; labels[i] is the
// true class index (negative entries — unknown to this model — are
// skipped). Floors are low quantiles of the margins and evidence of
// correctly-classified samples, per class where the class has enough
// of them and globally otherwise, so the calibrated path abstains on
// at most roughly a Quantile fraction of predictions the raw path got
// right. The returned calibration also carries the drift Baseline
// measured over the whole holdout with the freshly tuned floors.
func Calibrate(classes []string, probas, evidence [][]float64, labels []int, opt CalibrateOptions) (*Calibration, error) {
	opt = opt.withDefaults()
	if len(classes) == 0 {
		return nil, fmt.Errorf("openset: calibrate: no classes")
	}
	if len(probas) != len(labels) || len(evidence) != len(labels) {
		return nil, fmt.Errorf("openset: calibrate: %d probas / %d evidence rows for %d labels",
			len(probas), len(evidence), len(labels))
	}
	if opt.Quantile < 0 || opt.Quantile >= 1 {
		return nil, fmt.Errorf("openset: calibrate: quantile %v outside [0, 1)", opt.Quantile)
	}

	perClassMargin := make([][]float64, len(classes))
	perClassEv := make([][]float64, len(classes))
	var allMargin, allEv []float64
	for i := range probas {
		label := labels[i]
		if label < 0 {
			continue
		}
		if label >= len(classes) {
			return nil, fmt.Errorf("openset: calibrate: label %d outside %d classes", label, len(classes))
		}
		if len(probas[i]) != len(classes) || len(evidence[i]) != len(classes) {
			return nil, fmt.Errorf("openset: calibrate: row %d has %d probas / %d evidence for %d classes",
				i, len(probas[i]), len(evidence[i]), len(classes))
		}
		best, p1, p2 := Argmax2(probas[i])
		if best != label || p1 < opt.Threshold {
			// Floors are tuned only on predictions the raw path gets
			// right: a floor derived from mistakes would encode the very
			// confusion abstention exists to catch.
			continue
		}
		margin, ev := p1-p2, evidence[i][best]
		perClassMargin[label] = append(perClassMargin[label], margin)
		perClassEv[label] = append(perClassEv[label], ev)
		allMargin = append(allMargin, margin)
		allEv = append(allEv, ev)
	}
	if len(allMargin) == 0 {
		return nil, fmt.Errorf("openset: calibrate: holdout has no correctly-classified samples to tune on")
	}

	cal := &Calibration{
		Classes:             append([]string(nil), classes...),
		Threshold:           opt.Threshold,
		MarginFloor:         make([]float64, len(classes)),
		EvidenceFloor:       make([]float64, len(classes)),
		GlobalMarginFloor:   quantile(allMargin, opt.Quantile),
		GlobalEvidenceFloor: evidenceFloor(allEv, opt),
		Quantile:            opt.Quantile,
	}
	for ci := range classes {
		if len(perClassEv[ci]) < opt.MinPerClass {
			cal.MarginFloor[ci] = FloorUnset
			cal.EvidenceFloor[ci] = FloorUnset
			continue
		}
		cal.MarginFloor[ci] = quantile(perClassMargin[ci], opt.Quantile)
		cal.EvidenceFloor[ci] = evidenceFloor(perClassEv[ci], opt)
	}

	// The drift baseline is the whole holdout — misclassified samples
	// included — as the freshly tuned rule would serve it.
	hist := make([]float64, BaselineBins)
	unknown, n := 0, 0
	for i := range probas {
		if labels[i] < 0 {
			continue
		}
		d := cal.Decide(probas[i], evidence[i])
		hist[confidenceBin(d.Confidence)]++
		if d.Verdict == VerdictUnknown {
			unknown++
		}
		n++
	}
	for i := range hist {
		hist[i] /= float64(n)
	}
	cal.Baseline = Baseline{
		ConfidenceHist: hist,
		UnknownRate:    float64(unknown) / float64(n),
		Samples:        n,
	}
	if err := cal.validate(); err != nil {
		return nil, fmt.Errorf("openset: calibrate: %w", err)
	}
	return cal, nil
}

// evidenceFloor is the quantile evidence floor lowered by the guard
// band, clamped into the valid similarity range.
func evidenceFloor(vs []float64, opt CalibrateOptions) float64 {
	f := quantile(vs, opt.Quantile) - opt.EvidenceSlack
	if f < 0 {
		f = 0
	}
	return f
}

// confidenceBin maps a top-1 probability onto its baseline histogram
// bin.
//
// fhc:hotpath
func confidenceBin(conf float64) int {
	bin := int(conf * BaselineBins)
	if bin < 0 {
		bin = 0
	}
	if bin >= BaselineBins {
		bin = BaselineBins - 1
	}
	return bin
}

// quantile returns the q-quantile of vs by the lower-interpolation
// rule: the value below which at most a q fraction of the inputs fall.
// Used as a floor with a strict less-than test, it abstains on at most
// that fraction of the calibration population.
func quantile(vs []float64, q float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	idx := int(math.Floor(q * float64(len(sorted)-1)))
	return sorted[idx]
}
