package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// answer is the part of a classify response the oracle pins: every
// serving path must return exactly these values for one binary.
type answer struct {
	Label      string  `json:"label"`
	Class      string  `json:"class"`
	Verdict    string  `json:"verdict"`
	Confidence float64 `json:"confidence"`
}

// parseAnswer decodes a 200 classify response. A response without a
// label is not a verdict.
func parseAnswer(body []byte) (answer, error) {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return a, fmt.Errorf("classify response: %w", err)
	}
	if a.Label == "" {
		return a, fmt.Errorf("classify response has no label: %.200s", body)
	}
	return a, nil
}

// clientTimeout bounds every request. It is also the latency a failed job
// is charged.
const clientTimeout = 60 * time.Second

// newHTTPClient returns a client that keeps at most conns connections
// per host, so the load reaches the fleet over exactly that many.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: clientTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one request and returns the status and the whole reply.
func post(c *http.Client, url, contentType string, body io.Reader, size int) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = int64(size)
	req.Header.Set("Content-Type", contentType)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// probeBody is the hash-first request for a binary with the given
// SHA-256.
func probeBody(sum [32]byte) []byte {
	return []byte(`{"sha256":"` + hex.EncodeToString(sum[:]) + `"}`)
}

// probe asks base for the verdict of the binary whose hash-first request
// is req.
func probe(c *http.Client, base string, req []byte) (int, []byte, error) {
	return post(c, base+"/v1/classify", "application/json", bytes.NewReader(req), len(req))
}

// upload streams b to base on the raw octet-stream leg.
func upload(c *http.Client, base string, b body) (int, []byte, error) {
	return post(c, base+"/v1/classify?exe="+url.QueryEscape(b.name), "application/octet-stream", b.reader(), b.size())
}

// failOf classifies a transport result that is not a 200.
func failOf(status int, err error) failKind {
	switch {
	case err != nil:
		return failTransport
	case status == http.StatusTooManyRequests:
		return failRejected
	case status != http.StatusOK:
		return failStatus
	}
	return failNone
}

// isNeedsBody reports a hash-first miss: 404 {"error":"needs_body"}.
func isNeedsBody(status int, reply []byte) bool {
	return status == http.StatusNotFound && bytes.Contains(reply, []byte(`"needs_body"`))
}

// get fetches url and demands a 200.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("GET %s: %d %.200s", url, resp.StatusCode, reply)
	}
	return reply, nil
}

// waitFor polls check every 5 ms until it succeeds or timeout passes.
func waitFor(timeout time.Duration, what string, check func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := check()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: %w", what, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
