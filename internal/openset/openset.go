// Package openset turns the closed-set Fuzzy Hash Classifier into an
// open-set recognizer. The paper's model forces every binary onto a
// nearest training class, so a novel HPC application is confidently
// mislabeled — and, worse, confidently harvested by the continuous-
// learning loop, which then trains on its own mistake. This package
// supplies the two missing layers:
//
//   - calibrated abstention: a Calibration holds per-class floors for
//     the probability margin (top-1 minus top-2) and the fuzzy-hash
//     distance evidence (the best class's maximum ssdeep similarity,
//     0–100), tuned on a frozen holdout so that at most a configured
//     fraction of correctly-classified known samples abstain. Decide
//     applies them to one probability/evidence pair and returns a
//     three-way Decision: class, unknown, or ambiguous.
//   - population drift detection: a Detector compares the served
//     traffic's confidence distribution and unknown-verdict rate
//     against the calibration-time Baseline with a chi-square test and
//     a two-proportion z-test over a sliding window, latches an alarm
//     (fires exactly once per excursion, with hysteresis before
//     re-arming) and exports fhc_openset_* / fhc_drift_* metrics.
//
// The package is deliberately model-free: it sees only class names,
// probability vectors, evidence vectors and integer labels, so
// internal/core can depend on it (the Calibration rides inside the
// persisted model artifact, making hot-swap and staged rollout carry
// model and thresholds atomically) without an import cycle.
//
// Concurrency contract: a Calibration is immutable after Calibrate or
// Decode and safe for concurrent Decide calls. A Detector is safe for
// concurrent Observe/State/Rebaseline calls from any number of
// goroutines; alarm hooks run outside its lock.
package openset

// Verdict is the calibrated three-way decision for one sample.
type Verdict string

// The three verdicts. An empty Verdict on a prediction means no
// calibration was installed — the raw closed-set path answered.
const (
	// VerdictClass: the probability margin and distance evidence both
	// clear their floors; the predicted class stands.
	VerdictClass Verdict = "class"
	// VerdictUnknown: the sample's evidence (or confidence) fell below
	// the calibrated floor — it resembles no known class well enough to
	// trust, and must not be harvested as ground truth.
	VerdictUnknown Verdict = "unknown"
	// VerdictAmbiguous: evidence clears its floor but the margin does
	// not — two known classes compete. The raw label stands for
	// serving, but self-training must not learn from it.
	VerdictAmbiguous Verdict = "ambiguous"
)

// BaselineBins is the number of confidence-histogram bins a Baseline
// records; bin i covers [i/BaselineBins, (i+1)/BaselineBins).
const BaselineBins = 10

// Baseline is the calibration-time population snapshot the drift
// detector tests served traffic against.
type Baseline struct {
	// ConfidenceHist holds the proportion of holdout samples whose
	// top-1 probability fell in each of BaselineBins equal bins.
	ConfidenceHist []float64 `json:"confidence_hist"`
	// UnknownRate is the fraction of the holdout the calibrated decide
	// rule itself marks unknown — the abstention rate a healthy
	// population is expected to show.
	UnknownRate float64 `json:"unknown_rate"`
	// Samples is the holdout size behind the histogram.
	Samples int `json:"samples"`
}

// FloorUnset marks a per-class floor with too little calibration data;
// Decide falls back to the global floor.
const FloorUnset = -1

// Calibration is the tuned abstention policy for one trained model:
// per-class floors with global fallbacks, plus the drift baseline. It
// is persisted alongside the model artifact as a versioned blob
// (Encode/Decode) so a hot swap installs model and thresholds as one
// atomic unit.
type Calibration struct {
	// Classes is the model's class list, in model order; Decide indexes
	// the per-class floors by the argmax class index.
	Classes []string `json:"classes"`
	// Threshold is the raw confidence threshold in effect when the
	// calibration was tuned; confidences below it are unknown exactly
	// as on the raw path.
	Threshold float64 `json:"threshold"`
	// MarginFloor and EvidenceFloor are per-class floors (FloorUnset
	// where the class had too few correct holdout samples to tune one).
	MarginFloor   []float64 `json:"margin_floor"`
	EvidenceFloor []float64 `json:"evidence_floor"`
	// GlobalMarginFloor and GlobalEvidenceFloor back the unset
	// per-class entries.
	GlobalMarginFloor   float64 `json:"global_margin_floor"`
	GlobalEvidenceFloor float64 `json:"global_evidence_floor"`
	// Quantile records the per-class floor quantile the calibrator
	// used — the abstention budget on correctly-classified samples.
	Quantile float64 `json:"quantile"`
	// Baseline seeds the drift detector.
	Baseline Baseline `json:"baseline"`
}

// Decision is Decide's answer for one sample.
type Decision struct {
	// Verdict is the three-way outcome.
	Verdict Verdict
	// Best is the argmax class index into Calibration.Classes.
	Best int
	// Confidence is the top-1 probability, Margin the top-1 minus
	// top-2 gap.
	Confidence float64
	Margin     float64
	// Evidence is the best class's distance evidence, or FloorUnset
	// when the caller had none.
	Evidence float64
}

// Argmax2 returns the index of the largest probability plus the two
// largest values. It is the one arg-max rule of the classify path: a
// tie goes to the first index, and the raw threshold rule, the margin
// and the calibrated verdict all call it, so they always agree on the
// winning class. An empty vector yields best 0 and p1 -1.
//
// fhc:hotpath
func Argmax2(probs []float64) (best int, p1, p2 float64) {
	p1, p2 = -1, -1
	for i, p := range probs {
		if p > p1 {
			best, p2, p1 = i, p1, p
		} else if p > p2 {
			p2 = p
		}
	}
	if p2 < 0 {
		p2 = 0 // single-class vector: margin degenerates to p1
	}
	return best, p1, p2
}

// Decide applies the calibrated abstention rule to one probability
// vector (model class order) and its per-class evidence vector (nil
// when unavailable — the evidence floor is then skipped). It allocates
// nothing and takes no locks: the serving layer calls it once per
// prediction on the classify hot path.
//
// fhc:hotpath
func (c *Calibration) Decide(probs, evidence []float64) Decision {
	best, p1, p2 := Argmax2(probs)
	d := Decision{
		Best:       best,
		Confidence: p1,
		Margin:     p1 - p2,
		Evidence:   FloorUnset,
	}
	if best < len(evidence) {
		d.Evidence = evidence[best]
	}
	evFloor := c.GlobalEvidenceFloor
	if best < len(c.EvidenceFloor) && c.EvidenceFloor[best] != FloorUnset {
		evFloor = c.EvidenceFloor[best]
	}
	mFloor := c.GlobalMarginFloor
	if best < len(c.MarginFloor) && c.MarginFloor[best] != FloorUnset {
		mFloor = c.MarginFloor[best]
	}
	switch {
	case p1 < c.Threshold:
		// Below the raw confidence threshold the closed-set path
		// already abstains; the verdict agrees with it.
		d.Verdict = VerdictUnknown
	case d.Evidence != FloorUnset && d.Evidence < evFloor:
		d.Verdict = VerdictUnknown
	case d.Margin < mFloor:
		d.Verdict = VerdictAmbiguous
	default:
		d.Verdict = VerdictClass
	}
	return d
}
