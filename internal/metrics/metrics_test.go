package metrics

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// expose renders the registry to a string.
func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fhc_requests_total", "Total requests.")
	c.Inc()
	c.Inc()
	c.Inc()
	g := r.Gauge("fhc_in_flight", "In-flight requests.")
	g.Set(4)
	g.Add(-1)
	r.GaugeFunc("fhc_live", "Sampled at scrape.", func() float64 { return 7.5 })
	r.CounterFunc("fhc_sampled_total", "Counter sampled at scrape.", func() float64 { return 9 })

	out := expose(t, r)
	for _, want := range []string{
		"# HELP fhc_requests_total Total requests.",
		"# TYPE fhc_requests_total counter",
		"fhc_requests_total 3",
		"# TYPE fhc_in_flight gauge",
		"fhc_in_flight 3",
		"fhc_live 7.5",
		"fhc_sampled_total 9",
	} {
		if !strings.Contains(out, want+"\n") && !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecLabelsAndInterning(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("fhc_http_requests_total", "By route and code.", "route", "code")
	v.With("/v1/classify", "200").Inc()
	v.With("/v1/classify", "200").Inc()
	v.With("/v1/classify", "429").Inc()
	if got := v.With("/v1/classify", "200").Value(); got != 2 {
		t.Fatalf("interned child count = %d, want 2", got)
	}
	out := expose(t, r)
	if !strings.Contains(out, `fhc_http_requests_total{route="/v1/classify",code="200"} 2`) {
		t.Errorf("labelled series missing:\n%s", out)
	}
	if !strings.Contains(out, `fhc_http_requests_total{route="/v1/classify",code="429"} 1`) {
		t.Errorf("second labelled series missing:\n%s", out)
	}
	// One HELP/TYPE header for the whole family.
	if n := strings.Count(out, "# TYPE fhc_http_requests_total"); n != 1 {
		t.Errorf("family TYPE emitted %d times", n)
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("fhc_retrain_store_samples", "Training-store samples by class.", "class")
	v.With("Alpha").Set(12)
	v.With("Beta").Set(3)
	v.With("Alpha").Add(-2)
	if got := v.With("Alpha").Value(); got != 10 {
		t.Fatalf("interned child value = %g, want 10", got)
	}
	out := expose(t, r)
	for _, want := range []string{
		"# TYPE fhc_retrain_store_samples gauge",
		`fhc_retrain_store_samples{class="Alpha"} 10`,
		`fhc_retrain_store_samples{class="Beta"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("fhc_weird_total", "", "path")
	v.With("a\"b\\c\nd").Inc()
	out := expose(t, r)
	if !strings.Contains(out, `fhc_weird_total{path="a\"b\\c\nd"} 1`) {
		t.Errorf("escaping wrong:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fhc_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	out := expose(t, r)
	for _, want := range []string{
		`fhc_latency_seconds_bucket{le="0.01"} 1`,
		`fhc_latency_seconds_bucket{le="0.1"} 3`,
		`fhc_latency_seconds_bucket{le="1"} 4`,
		`fhc_latency_seconds_bucket{le="+Inf"} 5`,
		`fhc_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
	// Sum = 5.605 up to float wobble.
	var sum float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fhc_latency_seconds_sum") {
			f, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				t.Fatalf("sum parse: %v", err)
			}
			sum = f
		}
	}
	if sum < 5.6 || sum > 5.61 {
		t.Errorf("histogram sum = %v, want ~5.605", sum)
	}
}

// TestHistogramBoundaryInclusive pins the le semantics: a value equal to
// a bound lands in that bound's bucket.
func TestHistogramBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fhc_b", "", []float64{1, 2})
	h.Observe(1)
	out := expose(t, r)
	if !strings.Contains(out, `fhc_b_bucket{le="1"} 1`) {
		t.Errorf("boundary observation not in its bucket:\n%s", out)
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("fhc_route_seconds", "", []float64{0.1}, "route")
	v.With("/healthz").Observe(0.05)
	v.With("/metrics").Observe(0.5)
	out := expose(t, r)
	for _, want := range []string{
		`fhc_route_seconds_bucket{route="/healthz",le="0.1"} 1`,
		`fhc_route_seconds_bucket{route="/metrics",le="+Inf"} 1`,
		`fhc_route_seconds_count{route="/metrics"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram vec missing %q:\n%s", want, out)
		}
	}
}

func TestReregisterSameNameReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("fhc_once_total", "")
	b := r.Counter("fhc_once_total", "")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch on reregistration did not panic")
		}
	}()
	r.Gauge("fhc_once_total", "")
}

// TestBeforeWriteSnapshotHook pins the one-snapshot-per-scrape
// mechanism: the hook runs once per WritePrometheus, before any series
// renders, so every function-backed series in one exposition reads the
// same captured state.
func TestBeforeWriteSnapshotHook(t *testing.T) {
	r := NewRegistry()
	calls := 0
	var captured float64
	r.BeforeWrite(func() { calls++; captured = float64(calls * 10) })
	r.GaugeFunc("fhc_snap_a", "", func() float64 { return captured })
	r.GaugeFunc("fhc_snap_b", "", func() float64 { return captured })

	out := expose(t, r)
	if calls != 1 {
		t.Fatalf("hook ran %d times in one scrape, want 1", calls)
	}
	if !strings.Contains(out, "fhc_snap_a 10") || !strings.Contains(out, "fhc_snap_b 10") {
		t.Fatalf("series disagree within one scrape:\n%s", out)
	}
	out = expose(t, r)
	if calls != 2 || !strings.Contains(out, "fhc_snap_a 20") {
		t.Fatalf("hook not re-run on second scrape (calls=%d):\n%s", calls, out)
	}
}

// TestConcurrentUpdatesAndScrapes exercises the registry under the race
// detector: writers on every instrument shape while scrapes render.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fhc_c_total", "")
	g := r.Gauge("fhc_g", "")
	h := r.Histogram("fhc_h_seconds", "", nil)
	v := r.CounterVec("fhc_v_total", "", "who")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) / 1000)
				v.With(strconv.Itoa(w % 3)).Inc()
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	out := expose(t, r)
	if !strings.Contains(out, "fhc_h_seconds_count 4000") {
		t.Errorf("histogram lost observations:\n%s", out)
	}
}
