package main

import (
	"slices"
	"sync"
	"time"
)

// failKind classifies how a job failed; failNone is a verified verdict.
type failKind int

const (
	failNone      failKind = iota
	failStatus             // the final answer was not 200
	failRejected           // 429: the worker shed load
	failTransport          // connection error or timeout
	failWrong              // 200 with an answer the oracle disagrees with
)

// outcome is what one job reports to the load generator.
type outcome struct {
	fail   failKind
	upload bool // the job had to send its body
}

// record is one job's timing: when it was sent, from the phase start, how
// long it took, and how long its client spent between the previous reply
// and this send, preparing the job.
type record struct {
	at, lat, lag time.Duration
	outcome
}

// closedLoop runs clients for d: each prepares its next job, untimed,
// and sends it as soon as its previous one completes, so a slow system
// is offered less load. It returns when every job started before d has
// completed.
func closedLoop(clients int, d time.Duration, prepare func(client int) func() outcome) []record {
	start := time.Now()
	recs := make([][]record, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Duration(0)
			for {
				if time.Since(start) >= d {
					return
				}
				do := prepare(c)
				sent := time.Since(start)
				o := do()
				done := time.Since(start)
				recs[c] = append(recs[c], record{at: sent, lat: done - sent, lag: sent - free, outcome: o})
				free = done
			}
		}()
	}
	wg.Wait()
	return slices.Concat(recs...)
}

// phaseStats summarises one measured phase.
type phaseStats struct {
	n, ok, uploads int
	fails          map[failKind]int
	// lat holds every job's latency in ms, sorted. A failed job enters at
	// no less than the client timeout: a refused or lost request misses
	// any latency limit, so failing fast must not improve the percentiles.
	lat    []float64
	lagP99 float64 // ms
	wall   time.Duration
}

// summarise reduces a phase's records; wall is the phase's duration from
// its start to the last completion.
func summarise(recs []record) phaseStats {
	st := phaseStats{n: len(recs), fails: map[failKind]int{}}
	lags := make([]float64, 0, len(recs))
	for _, r := range recs {
		st.wall = max(st.wall, r.at+r.lat)
		lags = append(lags, ms(r.lag))
		if r.upload {
			st.uploads++
		}
		if r.fail != failNone {
			st.fails[r.fail]++
			st.lat = append(st.lat, ms(max(r.lat, clientTimeout)))
			continue
		}
		st.ok++
		st.lat = append(st.lat, ms(r.lat))
	}
	slices.Sort(st.lat)
	slices.Sort(lags)
	st.lagP99 = percentile(lags, 99)
	return st
}

func (st phaseStats) failed() int {
	n := 0
	for _, c := range st.fails {
		n += c
	}
	return n
}
