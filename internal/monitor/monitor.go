// Package monitor implements the decision-support layer of the paper's
// envisioned workflow (Figure 1): executables observed in job submissions
// are labelled by the Fuzzy Hash Classifier and the labels are checked
// against allocation purposes, per-user history and a blocklist —
// operationalising the paper's three guiding questions:
//
//  1. Is an application similar or different to the applications a user
//     or their group normally execute?
//  2. Is an application similar to a (known) set of applications that are
//     normally executed for the purpose of a particular allocation?
//  3. Is an application similar to a (known) set of applications that
//     should not be executed on the HPC system?
//
// Concurrency contract: a Monitor is safe for concurrent Observe calls
// — per-user history updates are serialised internally, and
// classification concurrency is delegated to the labeler (hand the
// serving engine to New for cached, coalesced labelling).
package monitor

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
)

// Labeler labels one sample; *core.Classifier and the serving engine
// (internal/serve) satisfy it, as does the classify service
// (internal/httpserve.Server), which is the labeler fhc serve hands to
// New: duplicate submissions then hit the engine's prediction cache,
// concurrent submissions of one binary share one featurisation, and
// every label is harvested and drift-observed exactly as on the HTTP
// surface.
type Labeler interface {
	Classify(*dataset.Sample) core.Prediction
}

// Policy declares what each allocation may run and what nothing may run.
type Policy struct {
	// AllowedByAccount maps an account to the application classes its
	// allocation covers; accounts absent from the map are unrestricted
	// (guiding question 2).
	AllowedByAccount map[string][]string
	// Blocklist names classes that must never run: sites can train the
	// classifier on known-bad software (miners, scanners) and list those
	// classes here (guiding question 3).
	Blocklist []string
}

// Event is one observed job submission.
type Event struct {
	// JobID identifies the job.
	JobID string
	// User and Account identify who runs it and under which allocation.
	User, Account string
	// JobName is the user-provided (untrusted) name.
	JobName string
	// Sample carries the executable's extracted features.
	Sample dataset.Sample
}

// FindingKind classifies a policy finding.
type FindingKind int

// The finding kinds, one per guiding question plus the blocklist hit.
const (
	// UnknownApplication: the executable resembles no known class.
	UnknownApplication FindingKind = iota
	// PurposeDeviation: the class is outside the allocation's purpose.
	PurposeDeviation
	// NewUserBehaviour: the user has never run this class before.
	NewUserBehaviour
	// BlockedApplication: the class is on the blocklist.
	BlockedApplication
)

// String names the finding kind.
func (k FindingKind) String() string {
	switch k {
	case UnknownApplication:
		return "unknown-application"
	case PurposeDeviation:
		return "purpose-deviation"
	case NewUserBehaviour:
		return "new-user-behaviour"
	case BlockedApplication:
		return "blocked-application"
	default:
		return fmt.Sprintf("FindingKind(%d)", int(k))
	}
}

// Finding is one policy observation about a job.
type Finding struct {
	// Kind classifies the finding.
	Kind FindingKind
	// Message is a human-readable explanation.
	Message string
}

// Monitor labels job events and applies policy. It is safe for
// concurrent use: job streams arrive from many scheduler hooks at once.
type Monitor struct {
	labeler Labeler
	policy  Policy

	mu      sync.Mutex
	allowed map[string]map[string]bool
	blocked map[string]bool
	history map[string]map[string]int // user -> class -> observations
}

// New builds a monitor over a trained labeler and a policy.
func New(labeler Labeler, policy Policy) *Monitor {
	m := &Monitor{
		labeler: labeler,
		policy:  policy,
		allowed: map[string]map[string]bool{},
		blocked: map[string]bool{},
		history: map[string]map[string]int{},
	}
	for account, classes := range policy.AllowedByAccount {
		set := map[string]bool{}
		for _, c := range classes {
			set[c] = true
		}
		m.allowed[account] = set
	}
	for _, c := range policy.Blocklist {
		m.blocked[c] = true
	}
	return m
}

// Observe labels one job event, records it in the user's history and
// returns the prediction together with any policy findings.
func (m *Monitor) Observe(e Event) (core.Prediction, []Finding) {
	pred := m.labeler.Classify(&e.Sample)
	return pred, m.apply(e, pred)
}

// apply records one labelled event in the user's history and evaluates
// the policy, answering the paper's three guiding questions.
func (m *Monitor) apply(e Event, pred core.Prediction) []Finding {
	m.mu.Lock()
	defer m.mu.Unlock()

	var findings []Finding
	if pred.Label == core.UnknownLabel {
		findings = append(findings, Finding{
			Kind: UnknownApplication,
			Message: fmt.Sprintf(
				"job %s (%s): executable matches no known application (closest %s at %.2f)",
				e.JobID, e.User, pred.Class, pred.Confidence),
		})
		return findings
	}

	if m.blocked[pred.Label] {
		findings = append(findings, Finding{
			Kind: BlockedApplication,
			Message: fmt.Sprintf("job %s (%s): %s is blocklisted on this system",
				e.JobID, e.User, pred.Label),
		})
	}
	if allowed, ok := m.allowed[e.Account]; ok && !allowed[pred.Label] {
		findings = append(findings, Finding{
			Kind: PurposeDeviation,
			Message: fmt.Sprintf("job %s: account %s is not allocated for %s",
				e.JobID, e.Account, pred.Label),
		})
	}
	userHist := m.history[e.User]
	if len(userHist) > 0 && userHist[pred.Label] == 0 {
		findings = append(findings, Finding{
			Kind: NewUserBehaviour,
			Message: fmt.Sprintf("job %s: first time user %s runs %s",
				e.JobID, e.User, pred.Label),
		})
	}
	if userHist == nil {
		userHist = map[string]int{}
		m.history[e.User] = userHist
	}
	userHist[pred.Label]++
	return findings
}

// ClassCount pairs a class with an observation count.
type ClassCount struct {
	Class string
	Count int
}

// UserHistory returns the user's observed classes, most frequent first.
func (m *Monitor) UserHistory(user string) []ClassCount {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []ClassCount
	for c, n := range m.history[user] {
		out = append(out, ClassCount{Class: c, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Class < out[j].Class
	})
	return out
}
