package httpserve

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// TestHTTPBatchMixedProtocols pins per-item isolation on the batch
// endpoint when one request interleaves every intake protocol with
// corrupt items: each slot succeeds or fails on its own, in request
// order, and a poisoned neighbour never degrades a good item's answer —
// good slots must be oracle-exact against direct classification.
func TestHTTPBatchMixedProtocols(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	client := ts.Client()

	// Warm the prediction cache for one binary so a hash-first item can
	// answer without content.
	warm := classifyOver(t, client, ts.URL, fixBins[0])
	warmSum := sha256.Sum256(fixBins[0])
	coldSum := sha256.Sum256(fixBins[3])

	samples := []ClassifyRequest{
		{Exe: "inline-a", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[1])},
		{Exe: "corrupt-b64", BinaryB64: "!!!not-base64!!!"},
		{Exe: "hash-warm", SHA256: hex.EncodeToString(warmSum[:])},
		{Exe: "non-elf", BinaryB64: base64.StdEncoding.EncodeToString([]byte("#!/bin/sh\nexit 0\n"))},
		{Exe: "inline-b", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[2])},
		{Exe: "hash-cold", SHA256: hex.EncodeToString(coldSum[:])},
		{Exe: "empty"},
		{Exe: "inline-c", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[1])},
	}
	code, body := postJSON(t, client, ts.URL+"/v1/classify/batch", BatchRequest{Samples: samples})
	if code != http.StatusOK {
		t.Fatalf("mixed batch: %d %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("mixed batch response: %v\n%s", err, body)
	}
	if len(resp.Results) != len(samples) {
		t.Fatalf("results: %d for %d samples", len(resp.Results), len(samples))
	}
	for i, r := range resp.Results {
		if r.Exe != samples[i].Exe {
			t.Fatalf("slot %d echoes %q, want %q — order not preserved", i, r.Exe, samples[i].Exe)
		}
	}

	// Oracle answers for the good inline items, computed outside the
	// server so a blended or neighbour-corrupted response cannot match.
	oracle := func(bin []byte) ClassifyResponse {
		t.Helper()
		sample, err := dataset.FromBinary("", "", "oracle", bin)
		if err != nil {
			t.Fatal(err)
		}
		pred := fixRF.Classify(&sample)
		return ClassifyResponse{Label: pred.Label, Class: pred.Class, Confidence: pred.Confidence}
	}
	checkExact := func(i int, bin []byte) {
		t.Helper()
		r, want := resp.Results[i], oracle(bin)
		if r.Error != "" {
			t.Fatalf("slot %d (%s) failed despite corrupt neighbours: %q", i, r.Exe, r.Error)
		}
		if r.Label != want.Label || r.Class != want.Class || r.Confidence != want.Confidence {
			t.Fatalf("slot %d (%s): %+v, oracle %+v", i, r.Exe, r, want)
		}
	}
	checkExact(0, fixBins[1])
	checkExact(4, fixBins[2])
	checkExact(7, fixBins[1])

	if r := resp.Results[1]; r.Error == "" || r.Label != "" {
		t.Fatalf("corrupt base64 slot: %+v", r)
	}
	if r := resp.Results[2]; r.Error != "" || !r.Cached ||
		r.Label != warm.Label || r.Class != warm.Class || r.Confidence != warm.Confidence {
		t.Fatalf("warm hash-first slot: %+v, want cached %+v", r, warm)
	}
	if r := resp.Results[3]; !strings.Contains(r.Error, "not an ELF") || r.Label != "" {
		t.Fatalf("non-ELF slot: %+v", r)
	}
	if r := resp.Results[5]; r.Error != "needs_body" || r.Label != "" {
		t.Fatalf("cold hash-first slot: %+v", r)
	}
	if r := resp.Results[6]; r.Error == "" || r.Label != "" {
		t.Fatalf("empty slot: %+v", r)
	}

	// The duplicated inline binary (slots 0 and 7) answers the same
	// label; both carried a body, so neither is flagged cached.
	if r0, r7 := resp.Results[0], resp.Results[7]; r7.Label != r0.Label || r0.Cached || r7.Cached {
		t.Fatalf("duplicate inline slots: %+v and %+v", r0, r7)
	}

	// A second all-corrupt batch still answers 200 with per-item errors —
	// corruption never escalates to a request-level failure.
	code, body = postJSON(t, client, ts.URL+"/v1/classify/batch", BatchRequest{Samples: []ClassifyRequest{
		{Exe: "bad-1", BinaryB64: "%%%"},
		{Exe: "bad-2", SHA256: "tooshort"},
	}})
	if code != http.StatusOK {
		t.Fatalf("all-corrupt batch: %d %s", code, body)
	}
	var resp2 BatchResponse
	if err := json.Unmarshal(body, &resp2); err != nil {
		t.Fatal(err)
	}
	for i, r := range resp2.Results {
		if r.Error == "" || r.Label != "" {
			t.Fatalf("all-corrupt slot %d: %+v", i, r)
		}
	}
}
