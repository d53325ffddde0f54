package monitor

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/openset"
)

// stubLabeler labels samples by their Class field with fixed confidence,
// using "-1" for classes outside its known set.
type stubLabeler struct {
	known map[string]bool
}

func (s *stubLabeler) Classify(sample *dataset.Sample) core.Prediction {
	if s.known[sample.Class] {
		return core.Prediction{Label: sample.Class, Class: sample.Class, Confidence: 0.95}
	}
	return core.Prediction{Label: core.UnknownLabel, Class: "NearestThing", Confidence: 0.3}
}

func testMonitor() *Monitor {
	labeler := &stubLabeler{known: map[string]bool{
		"BLAST": true, "GROMACS": true, "XMRig": true,
	}}
	return New(labeler, Policy{
		AllowedByAccount: map[string][]string{
			"bio-1": {"BLAST"},
			"mat-2": {"GROMACS"},
		},
		Blocklist: []string{"XMRig"},
	})
}

func event(job, user, account, class string) Event {
	return Event{
		JobID:   job,
		User:    user,
		Account: account,
		Sample:  dataset.Sample{Class: class, Version: "1", Exe: "x"},
	}
}

func kinds(findings []Finding) []FindingKind {
	out := make([]FindingKind, len(findings))
	for i, f := range findings {
		out[i] = f.Kind
	}
	return out
}

func TestCleanJobHasNoFindings(t *testing.T) {
	m := testMonitor()
	pred, findings := m.Observe(event("1", "alice", "bio-1", "BLAST"))
	if pred.Label != "BLAST" {
		t.Fatalf("label = %q", pred.Label)
	}
	if len(findings) != 0 {
		t.Fatalf("clean job produced findings: %v", findings)
	}
}

func TestUnknownApplicationFinding(t *testing.T) {
	m := testMonitor()
	pred, findings := m.Observe(event("2", "bob", "bio-1", "MysteryApp"))
	if pred.Label != core.UnknownLabel {
		t.Fatalf("label = %q", pred.Label)
	}
	if len(findings) != 1 || findings[0].Kind != UnknownApplication {
		t.Fatalf("findings = %v", findings)
	}
	if !strings.Contains(findings[0].Message, "NearestThing") {
		t.Fatalf("message lacks nearest class: %s", findings[0].Message)
	}
}

func TestPurposeDeviation(t *testing.T) {
	m := testMonitor()
	_, findings := m.Observe(event("3", "carol", "bio-1", "GROMACS"))
	ks := kinds(findings)
	if len(ks) != 1 || ks[0] != PurposeDeviation {
		t.Fatalf("findings = %v", findings)
	}
}

func TestUnrestrictedAccount(t *testing.T) {
	m := testMonitor()
	if _, findings := m.Observe(event("4", "dave", "free-9", "GROMACS")); len(findings) != 0 {
		t.Fatalf("unrestricted account flagged: %v", findings)
	}
}

func TestNewUserBehaviour(t *testing.T) {
	m := testMonitor()
	if _, f := m.Observe(event("5", "erin", "bio-1", "BLAST")); len(f) != 0 {
		t.Fatalf("first job flagged: %v", f)
	}
	if _, f := m.Observe(event("6", "erin", "bio-1", "BLAST")); len(f) != 0 {
		t.Fatalf("repeat job flagged: %v", f)
	}
	_, findings := m.Observe(event("7", "erin", "mat-2", "GROMACS"))
	found := false
	for _, f := range findings {
		if f.Kind == NewUserBehaviour {
			found = true
		}
	}
	if !found {
		t.Fatalf("behaviour change not flagged: %v", findings)
	}
}

func TestBlockedApplication(t *testing.T) {
	m := testMonitor()
	_, findings := m.Observe(event("8", "mallory", "free-9", "XMRig"))
	if len(findings) == 0 || findings[0].Kind != BlockedApplication {
		t.Fatalf("blocklisted app not flagged: %v", findings)
	}
}

func TestUserHistory(t *testing.T) {
	m := testMonitor()
	m.Observe(event("9", "zoe", "free-9", "BLAST"))
	m.Observe(event("10", "zoe", "free-9", "BLAST"))
	m.Observe(event("11", "zoe", "free-9", "GROMACS"))
	hist := m.UserHistory("zoe")
	if len(hist) != 2 || hist[0].Class != "BLAST" || hist[0].Count != 2 {
		t.Fatalf("history = %v", hist)
	}
	if got := m.UserHistory("nobody"); len(got) != 0 {
		t.Fatalf("unknown user history = %v", got)
	}
}

func TestUnknownDoesNotPolluteHistory(t *testing.T) {
	m := testMonitor()
	m.Observe(event("12", "pat", "free-9", "MysteryApp"))
	if got := m.UserHistory("pat"); len(got) != 0 {
		t.Fatalf("unknown observation entered history: %v", got)
	}
}

func TestConcurrentObserve(t *testing.T) {
	m := testMonitor()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m.Observe(event("c", "conc", "free-9", "BLAST"))
			}
		}(w)
	}
	wg.Wait()
	hist := m.UserHistory("conc")
	if len(hist) != 1 || hist[0].Count != 400 {
		t.Fatalf("concurrent history = %v, want 400 BLAST", hist)
	}
}

// TestObserveSequenceFindings pins the history-order effects of a run
// of events through one monitor: new-user-behaviour depends on what the
// same user ran earlier, and one event may raise several findings in a
// fixed order.
func TestObserveSequenceFindings(t *testing.T) {
	m := testMonitor()
	for _, tc := range []struct {
		e    Event
		want []FindingKind
	}{
		{event("b1", "alice", "bio-1", "BLAST"), nil},
		{event("b2", "alice", "bio-1", "GROMACS"), []FindingKind{PurposeDeviation, NewUserBehaviour}},
		{event("b3", "bob", "free-9", "MysteryApp"), []FindingKind{UnknownApplication}},
		{event("b4", "alice", "bio-1", "BLAST"), nil},
		{event("b5", "mallory", "free-9", "XMRig"), []FindingKind{BlockedApplication}},
	} {
		_, findings := m.Observe(tc.e)
		if got := kinds(findings); !slices.Equal(got, tc.want) {
			t.Fatalf("job %s: findings %v, want %v", tc.e.JobID, got, tc.want)
		}
	}
	want := []ClassCount{{Class: "BLAST", Count: 2}, {Class: "GROMACS", Count: 1}}
	if got := m.UserHistory("alice"); !slices.Equal(got, want) {
		t.Fatalf("alice's history = %v, want %v", got, want)
	}
}

func TestFindingKindString(t *testing.T) {
	for k, want := range map[FindingKind]string{
		UnknownApplication: "unknown-application",
		PurposeDeviation:   "purpose-deviation",
		NewUserBehaviour:   "new-user-behaviour",
		BlockedApplication: "blocked-application",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// verdictLabeler returns a fixed prediction per class, letting tests
// drive the open-set verdict channel through the monitoring path.
type verdictLabeler struct {
	preds map[string]core.Prediction
}

func (v *verdictLabeler) Classify(sample *dataset.Sample) core.Prediction {
	return v.preds[sample.Class]
}

// TestObserverHooks is the table-driven contract for what Observe
// delivers: every verdict shape reaches the caller intact with the
// matching findings.
func TestObserverHooks(t *testing.T) {
	labeler := &verdictLabeler{preds: map[string]core.Prediction{
		"BLAST": {Label: "BLAST", Class: "BLAST", Confidence: 0.95, Verdict: openset.VerdictClass},
		"Mystery": {Label: core.UnknownLabel, Class: "BLAST", Confidence: 0.41,
			Verdict: openset.VerdictUnknown},
		"Border": {Label: "GROMACS", Class: "GROMACS", Confidence: 0.62,
			Verdict: openset.VerdictAmbiguous},
		"Legacy": {Label: "BLAST", Class: "BLAST", Confidence: 0.9}, // no calibration
	}}

	cases := []struct {
		name        string
		class       string
		wantLabel   string
		wantVerdict openset.Verdict
		wantKinds   []FindingKind
	}{
		{name: "class verdict", class: "BLAST",
			wantLabel: "BLAST", wantVerdict: openset.VerdictClass},
		{name: "unknown verdict demotes to the unknown finding", class: "Mystery",
			wantLabel: core.UnknownLabel, wantVerdict: openset.VerdictUnknown,
			wantKinds: []FindingKind{UnknownApplication}},
		{name: "ambiguous verdict keeps the label", class: "Border",
			wantLabel: "GROMACS", wantVerdict: openset.VerdictAmbiguous},
		{name: "no calibration leaves the verdict empty", class: "Legacy",
			wantLabel: "BLAST", wantVerdict: ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(labeler, Policy{})
			pred, findings := m.Observe(event("j1", "alice", "", tc.class))
			if pred.Label != tc.wantLabel || pred.Verdict != tc.wantVerdict {
				t.Fatalf("Observe = label %q verdict %q, want %q/%q",
					pred.Label, pred.Verdict, tc.wantLabel, tc.wantVerdict)
			}
			if len(findings) != len(tc.wantKinds) {
				t.Fatalf("findings %+v, want kinds %v", findings, tc.wantKinds)
			}
			for i, k := range tc.wantKinds {
				if findings[i].Kind != k {
					t.Fatalf("finding %d kind %v, want %v", i, findings[i].Kind, k)
				}
			}
		})
	}
}
