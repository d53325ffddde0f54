package cluster_test

import (
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/clustertest"
	"repro/internal/httpserve"
	"repro/internal/serve"
)

// TestKeyAffinity is the tentpole property: every binary's
// featurisation lands on exactly one shard, whichever of the three
// classify protocols carries it. Proven from both ends — the shard
// header is stable per key, and the fleet-wide sum of engine cache
// misses equals the number of distinct binaries (each featurised once,
// anywhere).
func TestKeyAffinity(t *testing.T) {
	c := startCluster(t, cluster.Options{HedgeAfter: -1})
	owner := map[int]string{}
	first := map[int]httpserve.ClassifyResponse{}
	for i, bin := range fixBins {
		resp, shard := classifyInline(t, c.URL(), bin)
		if shard == "" {
			t.Fatal("no Fhc-Shard header on classify response")
		}
		owner[i], first[i] = shard, resp
	}
	for i, bin := range fixBins {
		// Repeat inline: same shard, same answer (the shard's cache has
		// it; the miss count below proves it was not classified again).
		resp, shard := classifyInline(t, c.URL(), bin)
		if shard != owner[i] {
			t.Fatalf("bin %d moved from %s to %s on resubmission", i, owner[i], shard)
		}
		if resp != first[i] {
			t.Fatalf("bin %d resubmission answered %+v, first %+v", i, resp, first[i])
		}
		// Raw octet-stream: the router hashes the body off the wire and
		// reaches the same shard.
		code, _, hdr := post(t, c.URL()+"/v1/classify?exe=job", "application/octet-stream", bin)
		if code != http.StatusOK {
			t.Fatalf("raw classify status %d", code)
		}
		if got := hdr.Get("Fhc-Shard"); got != owner[i] {
			t.Fatalf("bin %d raw leg routed to %s, inline leg to %s", i, got, owner[i])
		}
		// Hash-first probe: answered 200 by the owning shard's cache.
		key := serve.KeyOf(bin)
		code, body, hdr := postJSON(t, c.URL()+"/v1/classify", httpserve.ClassifyRequest{
			SHA256: hex.EncodeToString(key[:]),
		})
		if code != http.StatusOK {
			t.Fatalf("hash-first probe for bin %d: status %d: %s", i, code, body)
		}
		if got := hdr.Get("Fhc-Shard"); got != owner[i] {
			t.Fatalf("bin %d hash-first probe routed to %s, owner %s", i, got, owner[i])
		}
	}
	var misses uint64
	for _, w := range c.Workers {
		misses += w.Engine.Stats().Misses
	}
	if misses != uint64(len(fixBins)) {
		t.Fatalf("fleet-wide cache misses = %d, want %d (each binary featurised on exactly one shard)",
			misses, len(fixBins))
	}
}

// TestAffinityUnderChurn ejects a shard and checks the two halves of
// the consistent-hash contract: surviving shards keep their keys, and
// the ejected shard's keys settle on one stable successor — then come
// home on readmission.
func TestAffinityUnderChurn(t *testing.T) {
	c := startCluster(t, cluster.Options{HedgeAfter: -1})
	before := map[int]string{}
	for i, bin := range fixBins {
		before[i] = shardOf(t, c.URL(), bin)
	}
	victim := c.Workers[0]
	victim.Proxy.SetMode(clustertest.Blackhole)
	c.WaitReady(t, 2, 5*time.Second)

	for i, bin := range fixBins {
		after := shardOf(t, c.URL(), bin)
		if before[i] != victim.Name && after != before[i] {
			t.Fatalf("bin %d moved from surviving shard %s to %s during churn", i, before[i], after)
		}
		if before[i] == victim.Name && after == victim.Name {
			t.Fatalf("bin %d still routed to the ejected shard", i)
		}
		// Deterministic fallback: ask twice, same successor.
		if again := shardOf(t, c.URL(), bin); again != after {
			t.Fatalf("bin %d fallback flapped between %s and %s", i, after, again)
		}
	}

	victim.Proxy.SetMode(clustertest.Pass)
	c.WaitReady(t, 3, 5*time.Second)
	for i, bin := range fixBins {
		if got := shardOf(t, c.URL(), bin); got != before[i] {
			t.Fatalf("bin %d did not return to %s after readmission (got %s)", i, before[i], got)
		}
	}

	m := scrapeMetrics(t, c.URL())
	if !strings.Contains(m, `fhc_cluster_ejections_total{shard="`+victim.Name+`"} 1`) {
		t.Fatalf("ejection not counted for %s:\n%s", victim.Name, m)
	}
	if !strings.Contains(m, `fhc_cluster_readmissions_total{shard="`+victim.Name+`"} 1`) {
		t.Fatalf("readmission not counted for %s:\n%s", victim.Name, m)
	}
}

// TestHedgedRetryWins injects a stall on a key's owning shard and
// checks the hedge fires once, the next shard on the ring answers, and
// the win is counted.
func TestHedgedRetryWins(t *testing.T) {
	c := startCluster(t, cluster.Options{
		HedgeAfter: 50 * time.Millisecond,
		// Probes must tolerate the injected stall: the shard is slow,
		// not down — exactly the case hedging (not ejection) covers.
		HealthTimeout:  2 * time.Second,
		HealthInterval: time.Second,
	})
	bin := fixBins[0]
	resp0, owner := classifyInline(t, c.URL(), bin)

	var victim *clustertest.WorkerHandle
	for _, w := range c.Workers {
		if w.Name == owner {
			victim = w
		}
	}
	victim.Proxy.SetDelay(600 * time.Millisecond)
	victim.Proxy.SetMode(clustertest.Delay)

	start := time.Now()
	resp1, shard := classifyInline(t, c.URL(), bin)
	elapsed := time.Since(start)

	if shard == owner {
		t.Fatalf("stalled owner %s still answered; hedge did not win", owner)
	}
	if elapsed >= 600*time.Millisecond {
		t.Fatalf("request took %v — it waited out the stall instead of hedging", elapsed)
	}
	if resp1.Label != resp0.Label || resp1.Class != resp0.Class || resp1.Confidence != resp0.Confidence {
		t.Fatalf("hedged answer diverged: %+v vs %+v", resp1, resp0)
	}
	st := c.Router.Stats()
	if st.HedgesFired == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge not counted: %+v", st)
	}
}

// TestAtMostOneHedge stalls every shard so no attempt can win early,
// and checks the router fires exactly one hedge for the request rather
// than walking the whole ring.
func TestAtMostOneHedge(t *testing.T) {
	c := startCluster(t, cluster.Options{
		HedgeAfter:     30 * time.Millisecond,
		HealthTimeout:  2 * time.Second,
		HealthInterval: time.Second,
	})
	for _, w := range c.Workers {
		w.Proxy.SetDelay(300 * time.Millisecond)
		w.Proxy.SetMode(clustertest.Delay)
	}
	resp, _ := classifyInline(t, c.URL(), fixBins[1])
	if resp.Label == "" {
		t.Fatalf("no prediction through the stalled fleet: %+v", resp)
	}
	if st := c.Router.Stats(); st.HedgesFired != 1 {
		t.Fatalf("HedgesFired = %d for one slow request, want exactly 1", st.HedgesFired)
	}
}

// TestRetryOnReset resets a key's owning shard at connection level and
// checks the router retries the next shard transparently — the client
// sees 200, never the transport error.
func TestRetryOnReset(t *testing.T) {
	c := startCluster(t, cluster.Options{
		HedgeAfter:     -1,
		HealthInterval: time.Second, // slow prober: the request, not the probe, discovers the fault
	})
	bin := fixBins[2]
	_, owner := classifyInline(t, c.URL(), bin)
	for _, w := range c.Workers {
		if w.Name == owner {
			w.Proxy.SetMode(clustertest.Reset)
		}
	}
	resp, shard := classifyInline(t, c.URL(), bin)
	if shard == owner {
		t.Fatalf("reset shard %s answered", owner)
	}
	if resp.Label == "" {
		t.Fatalf("retry produced no prediction: %+v", resp)
	}
	if st := c.Router.Stats(); st.Retries == 0 {
		t.Fatalf("retry not counted: %+v", st)
	}
}

// ownerOf returns the fleet member that owns bin right now.
func ownerOf(t *testing.T, c *clustertest.Cluster, bin []byte) *clustertest.WorkerHandle {
	t.Helper()
	name := shardOf(t, c.URL(), bin)
	for _, w := range c.Workers {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("no worker named %q", name)
	return nil
}

// TestWorker500PassesThrough pins what the router does with a worker's
// deterministic 500: it is a complete reply, so the router passes it to
// the client from the owning shard and neither retries it elsewhere nor
// ejects the shard.
func TestWorker500PassesThrough(t *testing.T) {
	c := startCluster(t, cluster.Options{
		HedgeAfter:     -1,
		HealthInterval: time.Second, // only the request, not a probe, meets the fault
	})
	bin := fixBins[3]
	owner := ownerOf(t, c, bin)
	owner.Proxy.SetMode(clustertest.Fail500)

	code, body, hdr := postJSON(t, c.URL()+"/v1/classify", httpserve.ClassifyRequest{
		Exe: "job", BinaryB64: base64.StdEncoding.EncodeToString(bin),
	})
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "injected fault") {
		t.Fatalf("classify answered %d: %s, want the worker's 500", code, body)
	}
	if got := hdr.Get("Fhc-Shard"); got != owner.Name {
		t.Fatalf("the 500 came from %s, want the owner %s", got, owner.Name)
	}
	if st := c.Router.Stats(); st.Retries != 0 || st.HedgesFired != 0 {
		t.Fatalf("the 500 was retried or hedged: %+v", st)
	}
	for _, ws := range c.Router.WorkerStates() {
		if !ws.Ready {
			t.Fatalf("the 500 ejected %s", ws.Name)
		}
	}
}

// TestHedgeRace500Wins pins the hedge race: once a hedge has fired, the
// first complete reply wins whatever its status. The owner stalls on a
// request it would answer 200, the hedged shard answers 500 at once,
// and the client gets the 500.
func TestHedgeRace500Wins(t *testing.T) {
	c := startCluster(t, cluster.Options{
		HedgeAfter:     50 * time.Millisecond,
		HealthTimeout:  2 * time.Second,
		HealthInterval: time.Second,
	})
	req := httpserve.ClassifyRequest{Exe: "job", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[4])}
	// With every shard failing at once, the owner's 500 names it, and
	// no classify runs long enough to fire a hedge.
	for _, w := range c.Workers {
		w.Proxy.SetMode(clustertest.Fail500)
	}
	_, _, hdr := postJSON(t, c.URL()+"/v1/classify", req)
	owner := hdr.Get("Fhc-Shard")
	for _, w := range c.Workers {
		if w.Name == owner {
			w.Proxy.SetDelay(600 * time.Millisecond)
			w.Proxy.SetMode(clustertest.Delay)
		}
	}

	before := c.Router.Stats()
	start := time.Now()
	code, body, hdr := postJSON(t, c.URL()+"/v1/classify", req)
	if elapsed := time.Since(start); elapsed >= 600*time.Millisecond {
		t.Fatalf("request took %v: it waited out the stalled owner", elapsed)
	}
	if code != http.StatusInternalServerError {
		t.Fatalf("classify answered %d: %s, want the hedged shard's 500", code, body)
	}
	if got := hdr.Get("Fhc-Shard"); got == owner {
		t.Fatalf("the stalled owner %s answered", got)
	}
	st := c.Router.Stats()
	if st.HedgesFired-before.HedgesFired != 1 || st.HedgeWins-before.HedgeWins != 1 || st.Retries != before.Retries {
		t.Fatalf("want one hedge that won and no retry: before %+v, after %+v", before, st)
	}
}

// TestUnroutable blackholes the whole fleet: requests answer 503 with
// the router's own error (not a hang), readyz flips, and the counter
// moves.
func TestUnroutable(t *testing.T) {
	c := startCluster(t, cluster.Options{HedgeAfter: -1})
	for _, w := range c.Workers {
		w.Proxy.SetMode(clustertest.Blackhole)
	}
	c.WaitReady(t, 0, 5*time.Second)

	code, body, _ := postJSON(t, c.URL()+"/v1/classify", httpserve.ClassifyRequest{
		Exe: "job", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[0]),
	})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("classify against empty fleet: status %d: %s", code, body)
	}
	if !strings.Contains(string(body), "no ready workers") {
		t.Fatalf("unexpected error body: %s", body)
	}
	resp, err := http.Get(c.URL() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty fleet: %d", resp.StatusCode)
	}
	if st := c.Router.Stats(); st.Unroutable == 0 {
		t.Fatalf("unroutable not counted: %+v", st)
	}
	for _, w := range c.Workers {
		w.Proxy.SetMode(clustertest.Pass)
	}
	c.WaitReady(t, 3, 5*time.Second)
}

// TestRoutedBatchMixed drives the batch endpoint through the router
// with hash-first probes, inline binaries and corrupt items in one
// request: the batch scatters per item to the owning shards and the
// bad items fail alone.
func TestRoutedBatchMixed(t *testing.T) {
	c := startCluster(t, cluster.Options{HedgeAfter: -1})
	warm, _ := classifyInline(t, c.URL(), fixBins[0]) // warm bin 0's owner cache
	key := serve.KeyOf(fixBins[0])

	req := httpserve.BatchRequest{Samples: []httpserve.ClassifyRequest{
		{Exe: "warm", SHA256: hex.EncodeToString(key[:])},
		{Exe: "inline", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[1])},
		{Exe: "corrupt", BinaryB64: "!!!not-base64!!!"},
		{Exe: "cold-probe", SHA256: strings.Repeat("ee", 32)},
		{Exe: "empty"},
	}}
	code, body, _ := postJSON(t, c.URL()+"/v1/classify/batch", req)
	if code != http.StatusOK {
		t.Fatalf("batch status %d: %s (one bad item must not fail the batch)", code, body)
	}
	var resp httpserve.BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("batch response: %v\n%s", err, body)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(resp.Results))
	}
	if r := resp.Results[0]; r.Error != "" || !r.Cached || r.Label != warm.Label {
		t.Fatalf("warm hash-first item: %+v", r)
	}
	if r := resp.Results[1]; r.Error != "" || r.Label == "" {
		t.Fatalf("inline item: %+v", r)
	}
	if r := resp.Results[2]; !strings.Contains(r.Error, "base64") {
		t.Fatalf("corrupt item error = %q, want a worker base64 error", r.Error)
	}
	if r := resp.Results[3]; r.Error != "needs_body" {
		t.Fatalf("cold probe error = %q, want needs_body", r.Error)
	}
	if r := resp.Results[4]; !strings.Contains(r.Error, "neither path nor binary_b64") {
		t.Fatalf("empty item error = %q", r.Error)
	}
	// Exe echo survives the scatter/gather.
	for i, want := range []string{"warm", "inline", "corrupt", "cold-probe", "empty"} {
		if resp.Results[i].Exe != want {
			t.Fatalf("result %d echoes exe %q, want %q", i, resp.Results[i].Exe, want)
		}
	}
}

// TestClusterStatus checks the status surface: worker rows, rollout
// idle state, and stats wiring.
func TestClusterStatus(t *testing.T) {
	c := startCluster(t, cluster.Options{HedgeAfter: -1})
	c.WaitReady(t, 3, 5*time.Second)
	resp, err := http.Get(c.URL() + "/v1/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Workers []cluster.WorkerState `json:"workers"`
		Rollout cluster.RolloutStatus `json:"rollout"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 3 {
		t.Fatalf("status lists %d workers, want 3", len(st.Workers))
	}
	for _, w := range st.Workers {
		if !w.Ready {
			t.Fatalf("worker %s not ready in status", w.Name)
		}
	}
	if st.Rollout.State != "idle" {
		t.Fatalf("rollout state %q, want idle", st.Rollout.State)
	}
}

// TestRouterBodyLimit checks the router's own 413 guard.
func TestRouterBodyLimit(t *testing.T) {
	fixture(t)
	c := clustertest.Start(t, clustertest.Options{
		Model: fixRF,
		Cluster: cluster.Options{
			HedgeAfter:        -1,
			MaxBodyBytes:      1024,
			IncumbentArtifact: fixRFPath,
		},
	})
	big := make([]byte, 4096)
	code, body, _ := post(t, c.URL()+"/v1/classify", "application/octet-stream", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d: %s", code, body)
	}
}
