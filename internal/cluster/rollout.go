package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpserve"
	"repro/internal/metrics"
	"repro/internal/retrain"
)

// Rollout refusals, distinguishable by callers.
var (
	// ErrRolloutBusy reports a rollout already in flight; a second one
	// is refused, not queued — retry after the first finishes.
	ErrRolloutBusy = errors.New("cluster: a rollout is already in progress")
	// ErrNoIncumbent reports a rollout attempted with no incumbent
	// artifact configured: nothing to roll back to means no staged
	// rollout, so the coordinator refuses rather than winging it.
	ErrNoIncumbent = errors.New("cluster: no incumbent artifact to roll back to")
	// ErrRolloutFailed is the base error for a rollout that failed and
	// rolled back; the returned RolloutStatus carries the detail.
	ErrRolloutFailed = errors.New("cluster: rollout failed")
)

// Rollout state names, also the RolloutStatus.State values.
const (
	stateIdle       = "idle"
	stateCanary     = "canary"
	stateExpanding  = "expanding"
	statePromoted   = "promoted"
	stateRolledBack = "rolled_back"
	stateFailed     = "failed"
)

// stateCode maps a rollout state to the fhc_cluster_rollout_state
// gauge value.
func stateCode(s string) float64 {
	switch s {
	case stateIdle:
		return 0
	case stateCanary:
		return 1
	case stateExpanding:
		return 2
	case statePromoted:
		return 3
	case stateRolledBack:
		return 4
	default: // failed
		return 5
	}
}

// RolloutStatus reports where a rollout is (or how the last one
// ended): the stage, the artifact being promoted, the incumbent it
// would roll back to, which shards have swapped and which were skipped
// because they were ejected at the time.
type RolloutStatus struct {
	State     string   `json:"state"`
	Artifact  string   `json:"artifact,omitempty"`
	Incumbent string   `json:"incumbent,omitempty"`
	Canary    string   `json:"canary,omitempty"`
	Swapped   []string `json:"swapped,omitempty"`
	Skipped   []string `json:"skipped,omitempty"`
	Error     string   `json:"error,omitempty"`
	// RolledBack reports that the failure path ran and every attempted
	// shard was swapped back to the incumbent; RollbackErrors lists the
	// shards where even that failed (alert — the fleet may be split).
	RolledBack     bool     `json:"rolled_back,omitempty"`
	RollbackErrors []string `json:"rollback_errors,omitempty"`
}

// Coordinator drives staged model rollouts across the fleet: canary
// shard first, gated, then the remaining shards one at a time, with
// rollback to the incumbent artifact on any failure. One rollout runs
// at a time; concurrent requests are refused with ErrRolloutBusy.
type Coordinator struct {
	rt *Router

	// runMu serialises whole rollouts end to end — canary, gate,
	// expansion and rollback run as one critical section, because two
	// interleaved rollouts would leave the fleet split between
	// artifacts with no single incumbent to roll back to. Handlers
	// TryLock and answer 409 instead of queueing.
	//
	// fhcvet:coarse
	runMu sync.Mutex

	// stateMu guards the fields below; every hold is a short
	// read-or-assign so Status never blocks behind a running rollout.
	stateMu   sync.Mutex
	status    RolloutStatus
	incumbent string

	outPromoted       *metrics.Counter
	outRolledBack     *metrics.Counter
	outRollbackFailed *metrics.Counter

	watchStop chan struct{}
	watchWG   sync.WaitGroup
}

func newCoordinator(rt *Router) *Coordinator {
	c := &Coordinator{rt: rt, incumbent: rt.opt.IncumbentArtifact}
	c.status.State = stateIdle
	c.status.Incumbent = c.incumbent
	out := rt.opt.Registry.CounterVec("fhc_cluster_rollouts_total",
		"Staged rollouts by outcome: promoted, rolled_back, rollback_failed.", "outcome")
	c.outPromoted = out.With("promoted")
	c.outRolledBack = out.With("rolled_back")
	c.outRollbackFailed = out.With("rollback_failed")
	rt.opt.Registry.GaugeFunc("fhc_cluster_rollout_state",
		"Rollout stage: 0 idle, 1 canary, 2 expanding, 3 promoted, 4 rolled_back, 5 failed.",
		func() float64 {
			c.stateMu.Lock()
			defer c.stateMu.Unlock()
			return stateCode(c.status.State)
		})
	return c
}

// Status returns a snapshot of the current (or last) rollout.
func (c *Coordinator) Status() RolloutStatus {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	st := c.status
	st.Swapped = append([]string(nil), st.Swapped...)
	st.Skipped = append([]string(nil), st.Skipped...)
	st.RollbackErrors = append([]string(nil), st.RollbackErrors...)
	return st
}

// setStatus replaces the published status under stateMu.
func (c *Coordinator) setStatus(mut func(*RolloutStatus)) {
	c.stateMu.Lock()
	mut(&c.status) //fhcvet:ignore lockhold every caller passes a pure in-memory struct mutation; the lock bounds a few field writes
	c.stateMu.Unlock()
}

// Rollout promotes artifact across the fleet in stages: swap the
// canary (the first ready shard in registration order), gate it on
// its /readyz and the optional Gate hook, then expand
// shard by shard in registration order; on success the artifact
// becomes the new incumbent. Any failure rolls every already-swapped shard back to the
// incumbent and reports ErrRolloutFailed (the status has the detail).
// Shards ejected when the rollout reaches them are skipped and listed
// in Skipped — they serve whatever they served before, and the runbook
// covers re-syncing them on readmission.
func (c *Coordinator) Rollout(artifact string) (RolloutStatus, error) {
	if !c.runMu.TryLock() {
		return c.Status(), ErrRolloutBusy
	}
	defer c.runMu.Unlock()

	c.stateMu.Lock()
	incumbent := c.incumbent
	c.stateMu.Unlock()
	if incumbent == "" {
		return c.Status(), ErrNoIncumbent
	}
	c.setStatus(func(st *RolloutStatus) {
		*st = RolloutStatus{State: stateCanary, Artifact: artifact, Incumbent: incumbent}
	})

	var swapped []*Worker // rollback set, in swap order
	fail := func(stage string, err error) (RolloutStatus, error) {
		rbErrs := c.rollback(swapped, incumbent)
		c.setStatus(func(st *RolloutStatus) {
			st.Error = stage + ": " + err.Error()
			st.RolledBack = len(rbErrs) == 0
			st.RollbackErrors = rbErrs
			if len(rbErrs) == 0 {
				st.State = stateRolledBack
			} else {
				st.State = stateFailed
			}
		})
		if len(rbErrs) == 0 {
			c.outRolledBack.Inc()
		} else {
			c.outRollbackFailed.Inc()
		}
		return c.Status(), ErrRolloutFailed
	}

	// Stage 1: canary — the first ready shard in registration order.
	var canary *Worker
	for _, wk := range c.rt.workers {
		if wk.Ready() {
			canary = wk
			break
		}
	}
	if canary == nil {
		return fail("canary", errNoReadyWorkers)
	}
	c.setStatus(func(st *RolloutStatus) { st.Canary = canary.name })
	// The swap outcome is ambiguous on a transport error (the worker
	// may have applied it before the connection died), so the canary
	// joins the rollback set before the attempt, not after.
	swapped = append(swapped, canary)
	if err := c.swapOne(canary, artifact); err != nil {
		return fail("canary swap", err)
	}
	c.setStatus(func(st *RolloutStatus) { st.Swapped = append(st.Swapped, canary.name) })

	// Stage 2: gate the canary before the fleet follows it.
	if err := c.gateCanary(canary); err != nil {
		return fail("canary gate", err)
	}

	// Stage 3: expand shard by shard in registration order.
	c.setStatus(func(st *RolloutStatus) { st.State = stateExpanding })
	for _, wk := range c.rt.workers {
		if wk == canary {
			continue
		}
		if !wk.Ready() {
			c.setStatus(func(st *RolloutStatus) { st.Skipped = append(st.Skipped, wk.name) })
			continue
		}
		swapped = append(swapped, wk)
		if err := c.swapOne(wk, artifact); err != nil {
			return fail("expand "+wk.name, err)
		}
		c.setStatus(func(st *RolloutStatus) { st.Swapped = append(st.Swapped, wk.name) })
	}

	// Promote: the artifact is the new incumbent and rollback target.
	c.stateMu.Lock()
	c.incumbent = artifact
	c.status.State = statePromoted
	c.status.Incumbent = artifact
	c.stateMu.Unlock()
	c.outPromoted.Inc()
	return c.Status(), nil
}

// gateCanary requires one /readyz 200 from the canary, then runs the
// optional Gate hook against it.
func (c *Coordinator) gateCanary(canary *Worker) error {
	if !c.rt.member.probe(canary) {
		return errors.New("readyz did not answer 200 after the swap")
	}
	if c.rt.opt.Gate != nil {
		if err := c.rt.opt.Gate(canary); err != nil {
			return err
		}
	}
	return nil
}

// rollback swaps the incumbent back onto every attempted shard,
// returning one message per shard where the swap-back failed.
func (c *Coordinator) rollback(swapped []*Worker, incumbent string) []string {
	var errs []string
	for _, wk := range swapped {
		if err := c.swapOne(wk, incumbent); err != nil {
			errs = append(errs, wk.name+": "+err.Error())
		}
	}
	return errs
}

// swapOne posts one /v1/model/swap to a worker and demands 200.
func (c *Coordinator) swapOne(wk *Worker, artifact string) error {
	body, err := json.Marshal(httpserve.SwapRequest{Path: artifact})
	if err != nil {
		return err
	}
	code, err := c.post(wk.swapURL, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return errors.New("swap answered " + strconv.Itoa(code))
	}
	return nil
}

// post sends one JSON POST with the coordinator's swap timeout and
// returns the status code; the body is drained and closed.
func (c *Coordinator) post(url string, payload []byte) (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.rt.opt.SwapTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.rt.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	return resp.StatusCode, nil
}

// WatchArtifacts starts the auto-promote loop: poll the retrainer's
// "latest" pointer file in dir every interval, and when it names a new
// artifact, run a staged rollout of it. The retrainer's own promote
// already gated the candidate on the holdout differential; the staged
// rollout adds the fleet-level canary pass on top. A failed rollout is
// not retried until the pointer changes again — the artifact history
// stays on disk for a manual retry. Call once; Close stops it.
func (c *Coordinator) WatchArtifacts(dir string, every time.Duration) error {
	if every <= 0 {
		every = 5 * time.Second
	}
	c.stateMu.Lock()
	if c.watchStop != nil {
		c.stateMu.Unlock()
		return errors.New("cluster: artifact watcher already running")
	}
	stop := make(chan struct{})
	c.watchStop = stop
	c.stateMu.Unlock()

	// Prime on the pointer's value as of this call, synchronously, so
	// only an artifact published *after* WatchArtifacts returns triggers
	// a rollout. Priming inside the goroutine would race the first
	// publication against goroutine scheduling.
	lastSeen := ""
	if name, ok := readPointer(dir); ok {
		lastSeen = name
	}

	c.watchWG.Add(1)
	go func() {
		defer c.watchWG.Done()
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			name, ok := readPointer(dir)
			if !ok || name == lastSeen {
				continue
			}
			// Dedup before attempting: a failed rollout of a bad
			// artifact must not re-run every tick.
			lastSeen = name
			_, _ = c.Rollout(filepath.Join(dir, name))
		}
	}()
	return nil
}

// stopWatcher stops the artifact watcher if one is running.
func (c *Coordinator) stopWatcher() {
	c.stateMu.Lock()
	stop := c.watchStop
	c.watchStop = nil
	c.stateMu.Unlock()
	if stop != nil {
		close(stop)
	}
	c.watchWG.Wait()
}

// readPointer reads the retrainer's latest-artifact pointer file.
func readPointer(dir string) (string, bool) {
	b, err := os.ReadFile(filepath.Join(dir, retrain.LatestPointerName))
	if err != nil {
		return "", false
	}
	name := strings.TrimSpace(string(b))
	return name, name != ""
}
