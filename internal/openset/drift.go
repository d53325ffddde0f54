package openset

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// DriftOptions configures a Detector. The zero value selects serving
// defaults.
type DriftOptions struct {
	// Window is the sliding-window size in observations. Default 256.
	Window int
	// MinSamples is the smallest window the statistics run on; below
	// it the detector only accumulates. Default Window/4.
	MinSamples int
	// ChiSquareThreshold is the alarm bound for the confidence-
	// distribution chi-square statistic (BaselineBins-1 = 9 degrees of
	// freedom). The default 27.88 is the p=0.001 critical value: at a
	// healthy population, one window in a thousand false-alarms.
	ChiSquareThreshold float64
	// UnknownZThreshold is the alarm bound for the one-sided
	// two-proportion z statistic on the unknown-verdict rate. Default
	// 4.0 (p well under 1e-4): only a genuine excess of unknowns over
	// the calibration baseline fires.
	UnknownZThreshold float64
	// Hysteresis re-arms a latched alarm only after both statistics
	// drop below threshold*Hysteresis, so one excursion cannot flap
	// the alarm. Default 0.5; clamped to [0, 1].
	Hysteresis float64
	// OnAlarm, when non-nil, runs (outside the detector's lock) each
	// time the alarm latches — the hook the serving layer uses to kick
	// a retraining cycle. AddAlarmHook appends more.
	OnAlarm func(reason string)
	// Registry receives the fhc_openset_* and fhc_drift_* metrics. A
	// nil value registers them on a private, unexported registry.
	Registry *metrics.Registry
}

func (o DriftOptions) withDefaults() DriftOptions {
	if o.Window <= 0 {
		o.Window = 256
	}
	if o.MinSamples <= 0 {
		o.MinSamples = o.Window / 4
	}
	if o.MinSamples < 2 {
		o.MinSamples = 2
	}
	if o.MinSamples > o.Window {
		o.MinSamples = o.Window
	}
	if o.ChiSquareThreshold == 0 {
		o.ChiSquareThreshold = 27.88
	}
	if o.UnknownZThreshold == 0 {
		o.UnknownZThreshold = 4.0
	}
	if o.Hysteresis == 0 {
		o.Hysteresis = 0.5
	}
	o.Hysteresis = math.Min(1, math.Max(0, o.Hysteresis))
	return o
}

// DriftState is a snapshot of the detector.
type DriftState struct {
	// Alarmed reports whether the alarm is currently latched.
	Alarmed bool `json:"alarmed"`
	// Alarms counts latch events since construction — each excursion
	// past the thresholds fires exactly once.
	Alarms uint64 `json:"alarms"`
	// Observations counts every verdict observed.
	Observations uint64 `json:"observations"`
	// WindowSize is the current window population.
	WindowSize int `json:"window_size"`
	// ChiSquare and UnknownZ are the latest statistics (0 before the
	// window reaches MinSamples).
	ChiSquare float64 `json:"chi_square"`
	UnknownZ  float64 `json:"unknown_z"`
	// WindowUnknownRate and BaselineUnknownRate are the unknown-
	// verdict proportions being compared.
	WindowUnknownRate   float64 `json:"window_unknown_rate"`
	BaselineUnknownRate float64 `json:"baseline_unknown_rate"`
}

// driftObs is one windowed observation, packed small: the confidence
// bin plus the unknown-verdict flag.
type driftObs struct {
	bin     uint8
	unknown bool
}

// Detector watches served verdicts for population drift against a
// calibration Baseline. Create with NewDetector; feed it every served
// prediction via Observe.
type Detector struct {
	opt DriftOptions

	mu sync.Mutex
	// base is the expected distribution; expected holds its Laplace-
	// smoothed per-bin proportions so a bin the baseline never saw
	// cannot zero a chi-square denominator.
	base     Baseline
	expected [BaselineBins]float64
	ring     []driftObs
	next     int
	filled   bool
	counts   [BaselineBins]int
	unknown  int
	alarmed  bool
	hooks    []func(reason string)

	// Statistics read by scrape-time metric funcs.
	observations atomic.Uint64
	alarms       atomic.Uint64
	alarmGauge   atomic.Bool
	lastChi      atomicFloat
	lastZ        atomicFloat
	windowRate   atomicFloat
	baseRate     atomicFloat

	verdictClass     *metrics.Counter
	verdictUnknown   *metrics.Counter
	verdictAmbiguous *metrics.Counter
	verdictNone      *metrics.Counter
}

// atomicFloat is a float64 gauge written under the detector lock and
// read lock-free at scrape time.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// NewDetector builds a drift detector over a calibration baseline.
func NewDetector(base Baseline, opt DriftOptions) *Detector {
	opt = opt.withDefaults()
	d := &Detector{opt: opt, ring: make([]driftObs, opt.Window)}
	if opt.OnAlarm != nil {
		d.hooks = append(d.hooks, opt.OnAlarm)
	}
	d.setBaselineLocked(base)
	reg := opt.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	d.register(reg)
	return d
}

// register exports the detector's instruments. Verdict counters are
// resolved to children once so Observe touches no label rendering.
func (d *Detector) register(reg *metrics.Registry) {
	verdicts := reg.CounterVec("fhc_openset_verdicts_total",
		"Served predictions by calibrated verdict (class, unknown, ambiguous; none = no calibration installed).",
		"verdict")
	d.verdictClass = verdicts.With(string(VerdictClass))
	d.verdictUnknown = verdicts.With(string(VerdictUnknown))
	d.verdictAmbiguous = verdicts.With(string(VerdictAmbiguous))
	d.verdictNone = verdicts.With("none")
	reg.CounterFunc("fhc_drift_observations_total",
		"Predictions observed by the drift detector.",
		func() float64 { return float64(d.observations.Load()) })
	reg.CounterFunc("fhc_drift_alarms_total",
		"Drift alarm latch events; each excursion past the thresholds counts once.",
		func() float64 { return float64(d.alarms.Load()) })
	reg.GaugeFunc("fhc_drift_state",
		"1 while the drift alarm is latched, 0 when healthy.",
		func() float64 {
			if d.alarmGauge.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("fhc_drift_chi_square",
		"Latest chi-square statistic of the windowed confidence distribution against the calibration baseline.",
		d.lastChi.load)
	reg.GaugeFunc("fhc_drift_unknown_z",
		"Latest one-sided z statistic of the windowed unknown-verdict rate against the calibration baseline.",
		d.lastZ.load)
	reg.GaugeFunc("fhc_drift_window_unknown_rate",
		"Unknown-verdict rate over the current drift window.",
		d.windowRate.load)
	reg.GaugeFunc("fhc_drift_baseline_unknown_rate",
		"Expected unknown-verdict rate from the calibration baseline.",
		d.baseRate.load)
}

// AddAlarmHook appends fn to the alarm hooks; it runs outside the
// detector's lock on every latch. Safe to call while observing.
func (d *Detector) AddAlarmHook(fn func(reason string)) {
	if fn == nil {
		return
	}
	d.mu.Lock()
	d.hooks = append(d.hooks, fn)
	d.mu.Unlock()
}

// SetBaseline replaces the expected distribution — the swap path calls
// this when a new model artifact (with its own calibration) installs —
// and resets the window and the alarm latch: traffic served by the new
// model must not be tested against the old model's baseline.
func (d *Detector) SetBaseline(base Baseline) {
	d.mu.Lock()
	d.setBaselineLocked(base)
	d.mu.Unlock()
}

// Rebaseline applies the rule every model install follows: a model
// that carries a calibration re-baselines the detector from it (see
// SetBaseline). A nil calibration — an uncalibrated model — leaves the
// detector as it is, and a nil detector ignores the call, so install
// paths need no guards.
func (d *Detector) Rebaseline(cal *Calibration) {
	if d != nil && cal != nil {
		d.SetBaseline(cal.Baseline)
	}
}

func (d *Detector) setBaselineLocked(base Baseline) {
	d.base = base
	// Laplace smoothing over the recorded proportions: every bin gets
	// a floor of one pseudo-count so the chi-square denominator never
	// vanishes on a bin the holdout happened to miss.
	n := float64(base.Samples)
	if n <= 0 {
		n = 1
	}
	for i := range d.expected {
		p := 0.0
		if i < len(base.ConfidenceHist) {
			p = base.ConfidenceHist[i]
		}
		d.expected[i] = (p*n + 1) / (n + BaselineBins)
	}
	for i := range d.ring {
		d.ring[i] = driftObs{}
	}
	d.next, d.filled = 0, false
	d.counts = [BaselineBins]int{}
	d.unknown = 0
	d.alarmed = false
	d.alarmGauge.Store(false)
	d.lastChi.store(0)
	d.lastZ.store(0)
	d.windowRate.store(0)
	d.baseRate.store(base.UnknownRate)
}

// Observe feeds one served prediction into the window and re-evaluates
// the drift statistics. It allocates nothing; alarm hooks run after
// the lock is released.
//
// fhc:hotpath
func (d *Detector) Observe(v Verdict, confidence float64) {
	d.observations.Add(1)
	switch v {
	case VerdictClass:
		d.verdictClass.Inc()
	case VerdictUnknown:
		d.verdictUnknown.Inc()
	case VerdictAmbiguous:
		d.verdictAmbiguous.Inc()
	default:
		d.verdictNone.Inc()
	}

	var hooks []func(string)
	var reason string
	d.mu.Lock()
	old := d.ring[d.next]
	if d.filled {
		d.counts[old.bin]--
		if old.unknown {
			d.unknown--
		}
	}
	obs := driftObs{bin: uint8(confidenceBin(confidence)), unknown: v == VerdictUnknown}
	d.ring[d.next] = obs
	d.counts[obs.bin]++
	if obs.unknown {
		d.unknown++
	}
	d.next++
	if d.next == len(d.ring) {
		d.next, d.filled = 0, true
	}
	n := d.windowLenLocked()
	if n >= d.opt.MinSamples {
		chi, z, rate := d.statisticsLocked(n)
		d.lastChi.store(chi)
		d.lastZ.store(z)
		d.windowRate.store(rate)
		over := chi > d.opt.ChiSquareThreshold || z > d.opt.UnknownZThreshold
		under := chi < d.opt.ChiSquareThreshold*d.opt.Hysteresis &&
			z < d.opt.UnknownZThreshold*d.opt.Hysteresis
		if over && !d.alarmed {
			d.alarmed = true
			d.alarmGauge.Store(true)
			d.alarms.Add(1)
			hooks = append(make([]func(string), 0, len(d.hooks)), d.hooks...)
			reason = alarmReason(chi, z, d.opt)
		} else if under && d.alarmed {
			d.alarmed = false
			d.alarmGauge.Store(false)
		}
	}
	d.mu.Unlock()
	for _, fn := range hooks {
		fn(reason)
	}
}

// windowLenLocked is the current window population.
func (d *Detector) windowLenLocked() int {
	if d.filled {
		return len(d.ring)
	}
	return d.next
}

// statisticsLocked computes the chi-square statistic over the binned
// confidence distribution and the one-sided z statistic on the
// unknown-verdict rate, both against the smoothed baseline.
func (d *Detector) statisticsLocked(n int) (chi, z, rate float64) {
	fn := float64(n)
	for i := range d.counts {
		exp := d.expected[i] * fn
		diff := float64(d.counts[i]) - exp
		chi += diff * diff / exp
	}
	rate = float64(d.unknown) / fn
	// The baseline rate is clamped away from 0 and 1: a perfectly
	// clean holdout would otherwise make any single unknown verdict an
	// infinite-sigma event.
	p0 := math.Min(0.995, math.Max(0.005, d.base.UnknownRate))
	z = (rate - p0) / math.Sqrt(p0*(1-p0)/fn)
	return chi, z, rate
}

// alarmReason names which statistic latched the alarm.
func alarmReason(chi, z float64, opt DriftOptions) string {
	switch {
	case chi > opt.ChiSquareThreshold && z > opt.UnknownZThreshold:
		return fmt.Sprintf("drift: confidence distribution chi2=%.1f and unknown-rate z=%.1f exceed thresholds", chi, z)
	case z > opt.UnknownZThreshold:
		return fmt.Sprintf("drift: unknown-verdict rate z=%.1f exceeds threshold %.1f", z, opt.UnknownZThreshold)
	default:
		return fmt.Sprintf("drift: confidence distribution chi2=%.1f exceeds threshold %.1f", chi, opt.ChiSquareThreshold)
	}
}

// State snapshots the detector.
func (d *Detector) State() DriftState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DriftState{
		Alarmed:             d.alarmed,
		Alarms:              d.alarms.Load(),
		Observations:        d.observations.Load(),
		WindowSize:          d.windowLenLocked(),
		ChiSquare:           d.lastChi.load(),
		UnknownZ:            d.lastZ.load(),
		WindowUnknownRate:   d.windowRate.load(),
		BaselineUnknownRate: d.base.UnknownRate,
	}
}

// Alarmed reports whether the alarm is currently latched.
func (d *Detector) Alarmed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alarmed
}
