package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentilesOfKnownData(t *testing.T) {
	data := make([]float64, 1000)
	for i := range data {
		data[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentile(data, c.p); got != c.want {
			t.Errorf("p%g of 1..1000 = %g, want %g", c.p, got, c.want)
		}
	}
	// Exponential(1): quantile q is -ln(1-q).
	r := rand.New(rand.NewPCG(1, 1))
	exp := make([]float64, 200000)
	for i := range exp {
		exp[i] = r.ExpFloat64()
	}
	slices.Sort(exp)
	for _, p := range []float64{50, 90, 99} {
		want := -math.Log(1 - p/100)
		if got := percentile(exp, p); math.Abs(got-want)/want > 0.03 {
			t.Errorf("exponential p%g = %.4f, want %.4f", p, got, want)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{15, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from statistics.quantiles(data, n=4).
	for _, c := range []struct {
		data      []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3.5, 1.25, 9, 7.75, 2, 6.5, 4}, 2, 4, 7.75},
	} {
		q1, m, q3 := quartiles(c.data)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.data, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestRejectionsRaiseTheTail injects fast 429s into a closed loop whose
// successful jobs take 2 ms: a fleet that sheds load must read worse, not
// better, than one that serves it, so the rejected jobs must push p99 to
// the client timeout.
func TestRejectionsRaiseTheTail(t *testing.T) {
	run := func(rejectEvery int) phaseStats {
		var next atomic.Int64
		return summarise(closedLoop(2, 200*time.Millisecond, func(int) func() outcome {
			job := int(next.Add(1))
			return func() outcome {
				if rejectEvery > 0 && job%rejectEvery == 0 {
					return outcome{fail: failRejected}
				}
				time.Sleep(2 * time.Millisecond)
				return outcome{}
			}
		}))
	}
	served, shed := run(0), run(20)
	if shed.fails[failRejected] == 0 || shed.failed() != shed.n-shed.ok {
		t.Fatalf("rejections not counted: %+v", shed.fails)
	}
	if len(shed.lat) != shed.n {
		t.Fatalf("%d latencies for %d jobs: failed jobs left the distribution", len(shed.lat), shed.n)
	}
	if p99 := percentile(shed.lat, 99); p99 < ms(clientTimeout) {
		t.Fatalf("p99 %.3f ms with 5%% of jobs rejected: the rejections were not charged", p99)
	}
	if p99 := percentile(served.lat, 99); p99 >= ms(clientTimeout) {
		t.Fatalf("p99 %.3f ms with nothing rejected", p99)
	}
}

// TestClosedLoopTimesJobsNotPreparation prepares each job in 3 ms and
// runs it in 1 ms: every prepared job must be run and recorded once, its
// latency must cover the job, and the preparation must show as the
// client's lag, not as latency.
func TestClosedLoopTimesJobsNotPreparation(t *testing.T) {
	var mu sync.Mutex
	prepared, ran := 0, map[int]int{}
	recs := closedLoop(2, 300*time.Millisecond, func(int) func() outcome {
		time.Sleep(3 * time.Millisecond)
		mu.Lock()
		job := prepared
		prepared++
		mu.Unlock()
		return func() outcome {
			time.Sleep(time.Millisecond)
			mu.Lock()
			ran[job]++
			mu.Unlock()
			return outcome{upload: job%2 == 0}
		}
	})
	if len(recs) != prepared || len(ran) != prepared || prepared < 20 {
		t.Fatalf("%d records, %d jobs run, %d prepared", len(recs), len(ran), prepared)
	}
	for job, n := range ran {
		if n != 1 {
			t.Fatalf("job %d ran %d times", job, n)
		}
	}
	st := summarise(recs)
	if st.ok != len(recs) || st.uploads < len(recs)/2-1 {
		t.Fatalf("summary %+v", st)
	}
	if p50 := percentile(st.lat, 50); p50 < 1 {
		t.Fatalf("p50 %.3f ms is below the 1 ms service time", p50)
	}
	lags := make([]float64, 0, len(recs))
	for _, r := range recs {
		lags = append(lags, ms(r.lag))
	}
	slices.Sort(lags)
	if lag := percentile(lags, 50); lag < 3 {
		t.Fatalf("median lag %.3f ms is below the 3 ms preparation", lag)
	}
}
