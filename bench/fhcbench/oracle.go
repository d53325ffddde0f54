package main

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
)

// oracle computes the answer the fleet must give for a binary, in this
// process, from the artifact the fleet serves: core.LoadFile, features
// from dataset.FromBinary, then Classifier.Classify. Every serving path
// is specified to be bit-identical to it, so floats compare exactly.
type oracle struct{ clf *core.Classifier }

func (o *oracle) expect(bin []byte) (answer, error) {
	s, err := dataset.FromBinary("", "", "", bin)
	if err != nil {
		return answer{}, err
	}
	p := o.clf.Classify(&s)
	return answer{Label: p.Label, Class: p.Class, Verdict: string(p.Verdict), Confidence: p.Confidence}, nil
}

// expectAll computes the expected answer of every body.
func (o *oracle) expectAll(bodies []body) ([]answer, error) {
	out := make([]answer, len(bodies))
	errs := make([]error, len(bodies))
	var wg sync.WaitGroup
	for w := range prepWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(bodies); i += prepWorkers {
				out[i], errs[i] = o.expect(bodies[i].bytes())
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle for %s: %w", bodies[i].name, err)
		}
	}
	return out, nil
}

// verifier checks replies for working-set binaries, whose expected
// answers are known before timing. A reply already verified for a binary
// is remembered by its bytes, so a repeated hit costs a comparison, not
// a decode. One verifier serves one client goroutine.
type verifier struct {
	expect []answer
	seen   map[int][][]byte
}

func newVerifier(expect []answer) *verifier {
	return &verifier{expect: expect, seen: map[int][][]byte{}}
}

// check verifies a 200 reply for working-set binary i.
func (v *verifier) check(i int, reply []byte) failKind {
	for _, ok := range v.seen[i] {
		if bytes.Equal(ok, reply) {
			return failNone
		}
	}
	a, err := parseAnswer(reply)
	if err != nil || a != v.expect[i] {
		return failWrong
	}
	v.seen[i] = append(v.seen[i], bytes.Clone(reply))
	return failNone
}

// sampleEvery is the share of never-seen uploads whose answers are
// checked against the oracle after the measured phase: checking all of
// them would cost as much CPU as the fleet spent.
const sampleEvery = 16

// pending is a never-seen upload's answer, to be checked after the run.
type pending struct {
	kind  byte
	index uint64
	size  int
	got   answer
}

// verifyPending rebuilds each sampled body, asks the oracle, and returns
// how many answers differ.
func (o *oracle) verifyPending(g *gen, ps []pending) (int, error) {
	bodies := make([]body, len(ps))
	for i, p := range ps {
		bodies[i] = g.body(p.kind, p.index, p.size)
	}
	want, err := o.expectAll(bodies)
	if err != nil {
		return 0, err
	}
	wrong := 0
	for i, p := range ps {
		if p.got != want[i] {
			wrong++
		}
	}
	return wrong, nil
}
