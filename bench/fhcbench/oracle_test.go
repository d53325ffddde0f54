package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// forgingFleet answers every classify request with the oracle's answer
// for working-set binary 0, altered by forge.
func forgingFleet(t *testing.T, b *bench, forge func(*answer)) {
	t.Helper()
	a := b.expect[0]
	forge(&a)
	reply, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(reply, '\n'))
	}))
	t.Cleanup(srv.Close)
	b.fleet = &fleet{entry: srv.URL}
}

// testBench is a bench over the fixture corpus whose working set is its
// first binary, with oracle answers computed in-process.
func testBench(t *testing.T) *bench {
	_, _, clf := testFixture(t)
	b := &bench{w: workload{name: "prolog-mix", working: 1}, gen: testGen(t, 1, mib), oracle: &oracle{clf: clf}, load: newHTTPClient(1)}
	nb := b.gen.native(0)
	var err error
	if b.expect, err = b.oracle.expectAll([]body{nb}); err != nil {
		t.Fatal(err)
	}
	b.probes = [][]byte{probeBody(nb.sum())}
	return b
}

func TestForgedResponsesAreCounted(t *testing.T) {
	for _, c := range []struct {
		name  string
		forge func(*answer)
		want  failKind
	}{
		{"genuine", func(*answer) {}, failNone},
		{"label", func(a *answer) { a.Label = "Impostor" }, failWrong},
		{"verdict", func(a *answer) { a.Verdict = "ambiguous" }, failWrong},
		{"confidence one ulp off", func(a *answer) { a.Confidence = math.Nextafter(a.Confidence, 2) }, failWrong},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := testBench(t)
			forgingFleet(t, b, c.forge)
			c1 := &conn{v: newVerifier(b.expect)}
			var recs []record
			for range 3 { // the second and third replies hit the verifier's byte cache
				recs = append(recs, record{outcome: b.knownJob(c1, 0)})
			}
			st := summarise(recs)
			if got := recs[0].fail; got != c.want {
				t.Fatalf("job outcome %v, want %v", got, c.want)
			}
			if c.want != failNone && (st.failed() != 3 || st.fails[failWrong] != 3) {
				t.Fatalf("forged replies counted %d failures (%v), want 3 wrong", st.failed(), st.fails)
			}
			if c.want == failNone && st.failed() != 0 {
				t.Fatalf("genuine replies counted as failures: %v", st.fails)
			}
		})
	}
}

func TestForgedNeverSeenAnswerIsCounted(t *testing.T) {
	b := testBench(t)
	bd := b.gen.body(kindCold, 0, 256<<10)
	want, err := b.oracle.expect(bd.bytes())
	if err != nil {
		t.Fatal(err)
	}
	forged := want
	forged.Class = "Impostor"
	wrong, err := b.oracle.verifyPending(b.gen, []pending{
		{kind: kindCold, index: 0, size: 256 << 10, got: want},
		{kind: kindCold, index: 0, size: 256 << 10, got: forged},
	})
	if err != nil {
		t.Fatal(err)
	}
	if wrong != 1 {
		t.Fatalf("%d wrong answers counted, want 1", wrong)
	}
}

func TestNonVerdictRepliesAreFailures(t *testing.T) {
	for _, c := range []struct {
		status int
		reply  string
		want   failKind
	}{
		{http.StatusTooManyRequests, `{"error":"server saturated; retry with backoff"}`, failRejected},
		{http.StatusUnprocessableEntity, `{"error":"collect: not an ELF"}`, failStatus},
		{http.StatusOK, `{"error":"no label"}`, failWrong},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(c.status)
			_, _ = w.Write([]byte(c.reply))
		}))
		b := testBench(t)
		b.fleet = &fleet{entry: srv.URL}
		got := b.coldJob(&conn{}, 1, b.gen.body(kindCold, 1, 256<<10)).fail
		srv.Close()
		if got != c.want {
			t.Errorf("%d %s: outcome %v, want %v", c.status, strings.TrimSpace(c.reply), got, c.want)
		}
	}
}
