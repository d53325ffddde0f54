// Package metrics is a small, dependency-free metrics registry exposing
// the Prometheus text exposition format, built for the HTTP serving
// layer (internal/httpserve). It supports the three instrument shapes
// the serving path needs — monotonic counters, point-in-time gauges and
// fixed-bucket latency histograms — plus labelled families ("vecs") and
// function-backed instruments that sample a live value at scrape time,
// which is how the serving engine's atomic stat counters are exported
// without a second bookkeeping path.
//
// Concurrency contract: every instrument method (Inc, Add, Set, Observe,
// With) is safe for concurrent use from any goroutine; instruments are
// lock-free atomics on the hot path, and families intern label children
// under a short mutex. WritePrometheus may run concurrently with
// updates; it renders a point-in-time snapshot of each series.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Buckets are cumulative at exposition time; here each observation
	// lands in its first covering bucket (or the implicit +Inf slot).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// DefBuckets are latency bounds in seconds spanning the sub-millisecond
// cache-hit path through multi-second cold batches.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// instrument kinds, also the exposition TYPE names.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one exposed time series: a label set plus its instrument.
type series struct {
	labels string // rendered {k="v",...} body, "" when unlabelled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // function-backed counter or gauge
}

// family groups series sharing one metric name, HELP and TYPE.
type family struct {
	name, help, typ string
	buckets         []float64 // histograms only

	mu       sync.Mutex
	order    []string
	children map[string]*series
}

func (f *family) child(labels string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.children[labels]; ok {
		return s
	}
	s := &series{labels: labels}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		h := &Histogram{bounds: f.buckets}
		h.counts = make([]atomic.Uint64, len(f.buckets)+1)
		s.h = h
	}
	f.children[labels] = s
	f.order = append(f.order, labels)
	return s
}

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; create with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()

	// writeMu serialises whole scrapes: BeforeWrite hooks and the
	// render they feed run as one critical section, so two concurrent
	// WritePrometheus calls cannot interleave — every exposition is
	// rendered entirely against its own hooks' snapshot. Holding it
	// across the render's writes is the point; only scrapes contend.
	//
	// fhcvet:coarse
	writeMu sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// BeforeWrite registers fn to run at the start of every WritePrometheus
// call, before any series renders. Function-backed instruments use it to
// capture one consistent snapshot per scrape instead of sampling live
// state once per series.
func (r *Registry) BeforeWrite(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// register creates or fetches a family, panicking on a name reused with
// a different type — a programming error, like Prometheus client_golang.
func (r *Registry) register(name, help, typ string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("metrics: %s reregistered as %s (was %s)", name, typ, f.typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, buckets: buckets, children: map[string]*series{}}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil).child("").c
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil).child("").g
}

// Histogram registers (or fetches) an unlabelled fixed-bucket histogram.
// Bounds must be ascending; nil selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.register(name, help, typeHistogram, buckets).child("").h
}

// CounterFunc registers a counter whose value is sampled at scrape time.
// fn must be monotonic and safe to call concurrently.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, typeCounter, nil).child("").fn = fn
}

// GaugeFunc registers a gauge sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, typeGauge, nil).child("").fn = fn
}

// CounterVec is a labelled counter family.
type CounterVec struct {
	f      *family
	labels []string
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, nil), labels: labelNames}
}

// With returns the child counter for the given label values (one per
// label name, in order). Children are interned: the same values always
// return the same counter.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(renderLabels(v.labels, values)).c
}

// GaugeVec is a labelled gauge family.
type GaugeVec struct {
	f      *family
	labels []string
}

// GaugeVec registers a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, nil), labels: labelNames}
}

// With returns the child gauge for the given label values (one per label
// name, in order). Children are interned: the same values always return
// the same gauge.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(renderLabels(v.labels, values)).g
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct {
	f      *family
	labels []string
}

// HistogramVec registers a histogram family; nil buckets selects
// DefBuckets.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, buckets), labels: labelNames}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(renderLabels(v.labels, values)).h
}

// renderLabels builds the canonical `k="v",...` body for a label set.
func renderLabels(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("metrics: %d label values for %d names", len(values), len(names)))
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a sample value; integral floats print without
// exponent so counters read naturally.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4): one # HELP and # TYPE line per family, then
// one line per series, with histogram buckets cumulative.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		f.mu.Lock()
		order := append([]string(nil), f.order...)
		children := make([]*series, len(order))
		for i, l := range order {
			children[i] = f.children[l]
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range children {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	suffix := func(labels string) string {
		if labels == "" {
			return ""
		}
		return "{" + labels + "}"
	}
	switch {
	case s.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, suffix(s.labels), formatFloat(s.fn()))
		return err
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, suffix(s.labels), s.c.Value())
		return err
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, suffix(s.labels), formatFloat(s.g.Value()))
		return err
	case s.h != nil:
		h := s.h
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			labels := s.labels
			if labels != "" {
				labels += ","
			}
			labels += `le="` + formatFloat(bound) + `"`
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", f.name, labels, cum); err != nil {
				return err
			}
		}
		// The +Inf bucket equals _count by construction; read the slot
		// rather than count so a concurrent Observe between loads cannot
		// make the cumulative series non-monotonic within one scrape.
		cum += h.counts[len(h.bounds)].Load()
		labels := s.labels
		if labels != "" {
			labels += ","
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", f.name, labels, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, suffix(s.labels),
			formatFloat(math.Float64frombits(h.sumBits.Load()))); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, suffix(s.labels), cum)
		return err
	}
	return nil
}
