package httpserve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/openset"
	"repro/internal/serve"
)

// postRaw submits a binary over the raw streaming leg.
func postRaw(t *testing.T, client *http.Client, base string, exe string, bin []byte) (int, []byte) {
	t.Helper()
	url := base + "/v1/classify"
	if exe != "" {
		url += "?exe=" + exe
	}
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestHTTPClassifyRawStream is the wire-level differential for the raw
// octet-stream leg: predictions must equal the buffered JSON leg and
// direct classification, and a resubmission over another protocol
// answers the same label.
func TestHTTPClassifyRawStream(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	var first ClassifyResponse
	for i, bin := range fixBins[:4] {
		code, body := postRaw(t, ts.Client(), ts.URL, "raw-job", bin)
		if code != http.StatusOK {
			t.Fatalf("raw classify %d: status %d: %s", i, code, body)
		}
		var got ClassifyResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("raw response: %v\n%s", err, body)
		}
		sample, err := dataset.FromBinary("", "", "check", bin)
		if err != nil {
			t.Fatal(err)
		}
		want := fixRF.Classify(&sample)
		if got.Label != want.Label || got.Class != want.Class || got.Confidence != want.Confidence {
			t.Fatalf("sample %d: raw HTTP %+v, direct %+v", i, got, want)
		}
		if got.Exe != "raw-job" || got.Cached {
			t.Fatalf("sample %d: exe echo %q, cached %v", i, got.Exe, got.Cached)
		}
		if i == 0 {
			first = got
		}
	}
	// The same binary over the JSON leg answers the same label.
	if got := classifyOver(t, ts.Client(), ts.URL, fixBins[0]); got.Label != first.Label || got.Cached {
		t.Fatalf("JSON resubmission of a streamed binary: %+v, raw %+v", got, first)
	}
	// A parameterised content type still selects the raw leg.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify", bytes.NewReader(fixBins[1]))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream; charset=binary")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parameterised octet-stream: %d", resp.StatusCode)
	}
	// Non-ELF raw bodies fail extraction.
	if code, _ := postRaw(t, ts.Client(), ts.URL, "", []byte("#!/bin/sh\necho hi\n")); code != http.StatusUnprocessableEntity {
		t.Fatalf("non-ELF raw body: %d", code)
	}
}

// TestHTTPClassifyRawChunked posts the fixture binaries with no
// Content-Length (chunked transfer encoding), so no length hint reaches
// the hasher: the answers must equal the Content-Length uploads and
// direct classification, and the body cap still holds.
func TestHTTPClassifyRawChunked(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{MaxBodyBytes: 1 << 20})
	postChunked := func(bin []byte) (int, []byte) {
		t.Helper()
		// A bare io.Reader hides the length from the client, which then
		// sends the body chunked.
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/classify?exe=chunked",
			struct{ io.Reader }{bytes.NewReader(bin)})
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		if req.ContentLength != 0 {
			t.Fatalf("request has Content-Length %d, want chunked", req.ContentLength)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	for i, bin := range fixBins[:4] {
		code, body := postChunked(bin)
		if code != http.StatusOK {
			t.Fatalf("chunked classify %d: status %d: %s", i, code, body)
		}
		var chunked, sized ClassifyResponse
		if err := json.Unmarshal(body, &chunked); err != nil {
			t.Fatalf("chunked response: %v\n%s", err, body)
		}
		code, body = postRaw(t, ts.Client(), ts.URL, "chunked", bin)
		if code != http.StatusOK {
			t.Fatalf("Content-Length classify %d: status %d: %s", i, code, body)
		}
		if err := json.Unmarshal(body, &sized); err != nil {
			t.Fatalf("Content-Length response: %v\n%s", err, body)
		}
		if chunked != sized {
			t.Fatalf("sample %d: chunked %+v, Content-Length %+v", i, chunked, sized)
		}
		sample, err := dataset.FromBinary("", "", "check", bin)
		if err != nil {
			t.Fatal(err)
		}
		want := fixRF.Classify(&sample)
		if chunked.Label != want.Label || chunked.Class != want.Class || chunked.Confidence != want.Confidence {
			t.Fatalf("sample %d: chunked HTTP %+v, direct %+v", i, chunked, want)
		}
	}
	big := append(append([]byte{}, fixBins[0]...), make([]byte, 1<<20)...)
	if code, body := postChunked(big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunked body: %d %s", code, body)
	}
}

// TestHTTPRawBodyLengthMismatch sends raw bodies that do not match
// their Content-Length. Over a real connection, a body closed before
// its declared length must end in a 4xx. Handed straight to the
// handler, where nothing but the hasher's own check enforces the
// declared length, a body one byte short or one byte long must end in
// a 422. None may answer 200.
func TestHTTPRawBodyLengthMismatch(t *testing.T) {
	ts, _, s := newTestServer(t, serve.Options{}, Options{})
	bin := fixBins[0]

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := fmt.Sprintf("POST /v1/classify?exe=short HTTP/1.1\r\nHost: x\r\n"+
		"Content-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", len(bin))
	if _, err := conn.Write(append([]byte(head), bin[:len(bin)/2]...)); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the response to a short body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("body closed before its Content-Length: status %d, want 4xx", resp.StatusCode)
	}

	for _, body := range [][]byte{bin[:len(bin)-1], append(append([]byte{}, bin...), 0)} {
		req := httptest.NewRequest(http.MethodPost, "/v1/classify?exe=mismatch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/octet-stream")
		req.ContentLength = int64(len(bin))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("declared %d bytes, sent %d: status %d %s, want 422",
				len(bin), len(body), rec.Code, rec.Body.Bytes())
		}
	}
}

func TestHTTPRawStreamTooLarge(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{MaxBodyBytes: 1024})
	// A well-formed ELF prefix so the limit, not the magic check, trips.
	big := append(append([]byte{}, fixBins[0]...), make([]byte, 8192)...)
	code, body := postRaw(t, ts.Client(), ts.URL, "", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized raw body: %d %s", code, body)
	}
}

// TestHTTPHashFirst drives the hash-first protocol end to end: a cold
// probe is told to upload, the upload populates the prediction cache,
// and the warm probe answers from it without a body.
func TestHTTPHashFirst(t *testing.T) {
	ts, _, s := newTestServer(t, serve.Options{}, Options{})
	client := ts.Client()
	bin := fixBins[0]
	sum := sha256.Sum256(bin)
	digest := hex.EncodeToString(sum[:])

	probe := func(body string) (int, []byte) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}

	// Cold probe: the cache has never seen this binary.
	code, body := probe(`{"sha256":"` + digest + `"}`)
	if code != http.StatusNotFound || !strings.Contains(string(body), "needs_body") {
		t.Fatalf("cold probe: %d %s", code, body)
	}

	// Upload the binary, then probe again — warm.
	want := classifyOver(t, client, ts.URL, bin)
	code, body = probe(`{"exe":"probe-job","sha256":"` + digest + `"}`)
	if code != http.StatusOK {
		t.Fatalf("warm probe: %d %s", code, body)
	}
	var got ClassifyResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("warm probe response: %v\n%s", err, body)
	}
	if got.Label != want.Label || got.Class != want.Class || got.Confidence != want.Confidence {
		t.Fatalf("warm probe %+v, upload %+v", got, want)
	}
	if !got.Cached || got.Exe != "probe-job" {
		t.Fatalf("warm probe flags: %+v", got)
	}
	if v := s.hashFirstHits.Value(); v != 1 {
		t.Fatalf("hash-first hit counter = %v", v)
	}

	// The slow decoder serves layouts the fast scanner declines —
	// escaped exe, unknown whitespace — with identical results.
	code, body = probe("{\n  \"exe\": \"probe\\u002djob\",\n  \"sha256\": \"" + digest + "\"\n}")
	if code != http.StatusOK {
		t.Fatalf("slow-path probe: %d %s", code, body)
	}
	got = ClassifyResponse{}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Label != want.Label || got.Exe != "probe-job" || !got.Cached {
		t.Fatalf("slow-path probe: %+v", got)
	}

	// Malformed digests are rejected, not treated as misses.
	if code, _ = probe(`{"sha256":"abc"}`); code != http.StatusBadRequest {
		t.Fatalf("short digest: %d", code)
	}
	if code, _ = probe(`{"sha256":"` + strings.Repeat("zz", 32) + `"}`); code != http.StatusBadRequest {
		t.Fatalf("non-hex digest: %d", code)
	}
	// Hash plus content is ambiguous.
	if code, _ = probe(`{"sha256":"` + digest + `","binary_b64":"aGk="}`); code != http.StatusBadRequest {
		t.Fatalf("hash plus content: %d", code)
	}
	// The metrics exposition carries the new series.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"fhc_classify_hash_first_hits_total", "fhc_http_request_bytes"} {
		if !strings.Contains(string(text), series) {
			t.Fatalf("metrics exposition missing %s", series)
		}
	}
}

// TestHTTPCachedFlag pins what "cached":true means on the wire: an
// answer from the prediction cache without a body. Every body-carrying
// answer omits the field, even for a binary the worker has seen; every
// hash-first hit sets it; a repeated upload shows up only as one more
// engine cache hit.
func TestHTTPCachedFlag(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	client := ts.Client()
	bin := fixBins[0]
	sum := sha256.Sum256(bin)
	digest := hex.EncodeToString(sum[:])
	post := func(ct, body string) []byte {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/classify", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", body, resp.StatusCode, out)
		}
		return out
	}
	noCached := func(leg string, body []byte) {
		t.Helper()
		if bytes.Contains(body, []byte(`"cached"`)) {
			t.Fatalf("%s answer carries a cached field: %s", leg, body)
		}
	}
	isCached := func(leg string, r ClassifyResponse) {
		t.Helper()
		if !r.Cached || r.Error != "" || r.Label == "" {
			t.Fatalf("%s answer not cached: %+v", leg, r)
		}
	}

	noCached("raw", post(octetStream, string(bin)))
	hits0 := metricValue(t, scrape(t, client, ts.URL), "fhc_engine_cache_hits_total")
	inline, err := json.Marshal(ClassifyRequest{BinaryB64: base64.StdEncoding.EncodeToString(bin)})
	if err != nil {
		t.Fatal(err)
	}
	noCached("inline JSON", post("application/json", string(inline)))
	if hits := metricValue(t, scrape(t, client, ts.URL), "fhc_engine_cache_hits_total"); hits != hits0+1 {
		t.Fatalf("repeat upload moved engine cache hits %v -> %v, want +1", hits0, hits)
	}

	code, body := postJSON(t, client, ts.URL+"/v1/classify/batch", BatchRequest{Samples: []ClassifyRequest{
		{BinaryB64: base64.StdEncoding.EncodeToString(bin)},
		{SHA256: digest},
	}})
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var items struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &items); err != nil || len(items.Results) != 2 {
		t.Fatalf("batch response: %v %s", err, body)
	}
	noCached("batch body item", items.Results[0])
	var hashItem ClassifyResponse
	if err := json.Unmarshal(items.Results[1], &hashItem); err != nil {
		t.Fatal(err)
	}
	isCached("batch hash-first item", hashItem)

	for leg, probe := range map[string]string{
		"fast-path probe": `{"sha256":"` + digest + `"}`,
		"slow-path probe": `{"sha\u0032\u0035\u0036":"` + digest + `"}`,
	} {
		var r ClassifyResponse
		if err := json.Unmarshal(post("application/json", probe), &r); err != nil {
			t.Fatal(err)
		}
		isCached(leg, r)
	}
}

func TestHTTPHashFirstBatch(t *testing.T) {
	ts, _, _ := newTestServer(t, serve.Options{}, Options{})
	client := ts.Client()
	known := classifyOver(t, client, ts.URL, fixBins[0])
	sumKnown := sha256.Sum256(fixBins[0])
	sumCold := sha256.Sum256(fixBins[1])

	code, body := postJSON(t, client, ts.URL+"/v1/classify/batch", BatchRequest{Samples: []ClassifyRequest{
		{Exe: "warm", SHA256: hex.EncodeToString(sumKnown[:])},
		{Exe: "cold", SHA256: hex.EncodeToString(sumCold[:])},
		{Exe: "bad", SHA256: "nope"},
		{Exe: "mixed", SHA256: hex.EncodeToString(sumKnown[:]), BinaryB64: "aGk="},
		{Exe: "full", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[2])},
	}})
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 5 {
		t.Fatalf("results: %d", len(resp.Results))
	}
	if r := resp.Results[0]; r.Error != "" || !r.Cached || r.Label != known.Label {
		t.Fatalf("warm slot: %+v", r)
	}
	if r := resp.Results[1]; r.Error != "needs_body" {
		t.Fatalf("cold slot: %+v", r)
	}
	if r := resp.Results[2]; !strings.Contains(r.Error, "64 hex") {
		t.Fatalf("bad slot: %+v", r)
	}
	if r := resp.Results[3]; !strings.Contains(r.Error, "cannot be combined") {
		t.Fatalf("mixed slot: %+v", r)
	}
	if r := resp.Results[4]; r.Error != "" || r.Label == "" {
		t.Fatalf("full slot: %+v", r)
	}
}

// TestParseHashFirst pins the fast scanner's contract: whatever it
// accepts must agree with encoding/json, and anything doubtful must be
// declined (the decoder is the arbiter of validity, the scanner only an
// accelerator).
func TestParseHashFirst(t *testing.T) {
	digest := strings.Repeat("ab", 32)
	accept := []string{
		`{"sha256":"` + digest + `"}`,
		`{"sha256":"` + digest + `","exe":"ls"}`,
		`{"exe":"ls","sha256":"` + digest + `"}`,
		"  {\n\t\"sha256\" : \"" + digest + "\" }\r\n",
	}
	for _, in := range accept {
		key, exe, ok := ParseHashFirst([]byte(in))
		if !ok {
			t.Fatalf("scanner declined %q", in)
		}
		var req ClassifyRequest
		if err := json.Unmarshal([]byte(in), &req); err != nil {
			t.Fatalf("scanner accepted JSON the decoder rejects: %q: %v", in, err)
		}
		if req.SHA256 != hex.EncodeToString(key[:]) {
			t.Fatalf("%q: key %x, decoder %s", in, key, req.SHA256)
		}
		if req.Exe != string(exe) {
			t.Fatalf("%q: exe %q, decoder %q", in, exe, req.Exe)
		}
	}
	decline := []string{
		``,
		`{}`,
		`{"exe":"ls"}`,                     // no digest
		`{"sha256":"` + digest[:10] + `"}`, // short digest
		`{"sha256":"` + strings.Repeat("zz", 32) + `"}`,      // non-hex
		`{"sha256":"` + digest + `","path":"/bin/ls"}`,       // extra key
		`{"sha256":"` + digest + `",}`,                       // trailing comma
		`{"sha256":"` + digest + `"} junk`,                   // trailing data
		`{"sha256":"` + digest + `"`,                         // unterminated
		`{"exe":"l\u0073","sha256":"` + digest + `"}`,        // escapes go slow
		`{"exe":"l` + "\n" + `s","sha256":"` + digest + `"}`, // raw control char
		`[{"sha256":"` + digest + `"}]`,
		`{"sha256":12}`,
	}
	for _, in := range decline {
		if _, _, ok := ParseHashFirst([]byte(in)); ok {
			t.Fatalf("scanner accepted %q", in)
		}
	}
}

// TestWriteClassifyResponseParity checks the hand-rendered response is
// byte-identical to encoding/json's omitempty encoding, which the slow
// legs and batch leg still use.
func TestWriteClassifyResponseParity(t *testing.T) {
	cases := []struct {
		exe    string
		pred   core.Prediction
		cached bool
	}{
		{"job", core.Prediction{Label: "Alpha 1.0", Class: "Alpha", Confidence: 0.875}, true},
		{"", core.Prediction{Label: "Beta 2", Class: "Beta", Confidence: 1}, false},
		{`we"ird\name` + "\x01", core.Prediction{Label: "L", Class: "C", Confidence: 0.3333333333333333}, true},
		{"empty-pred", core.Prediction{}, false},
		{"", core.Prediction{}, false},
		{"tiny", core.Prediction{Label: "x", Confidence: 5e-08}, true},
		{"verdict-class", core.Prediction{Label: "Alpha 1.0", Class: "Alpha", Confidence: 0.875, Verdict: openset.VerdictClass}, true},
		{"verdict-unknown", core.Prediction{Label: "unknown", Confidence: 0.25, Verdict: openset.VerdictUnknown}, false},
		{"verdict-ambiguous", core.Prediction{Label: "Beta 2", Class: "Beta", Confidence: 0.5, Verdict: openset.VerdictAmbiguous}, true},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeClassifyResponse(rec, tc.exe, tc.pred, tc.cached)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ClassifyResponse{
			Exe: tc.exe, Label: tc.pred.Label, Class: tc.pred.Class,
			Confidence: tc.pred.Confidence, Verdict: string(tc.pred.Verdict), Cached: tc.cached,
		}); err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("exe=%q: hand-rendered %q, encoding/json %q", tc.exe, got, want.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("content type %q", ct)
		}
		// The []byte instantiation renders identically.
		rec2 := httptest.NewRecorder()
		writeClassifyResponse(rec2, []byte(tc.exe), tc.pred, tc.cached)
		if rec2.Body.String() != want.String() {
			t.Errorf("exe=%q: []byte rendering diverged", tc.exe)
		}
	}
}

// replayBody is a rewindable request body that allocates nothing per
// read cycle.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

// nullResponseWriter discards the response without allocating.
type nullResponseWriter struct {
	h    http.Header
	code int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) WriteHeader(code int)        { w.code = code }
func (w *nullResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestHashFirstWarmHitZeroAlloc is the acceptance gate for the warm
// path: a hash-first probe that hits the prediction cache must not
// allocate — not in routing, instrumentation, parsing, lookup or
// response rendering.
func TestHashFirstWarmHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact count gated uninstrumented")
	}
	fixture(t)
	engine := serve.New(fixRF, serve.Options{})
	defer engine.Close()
	s := New(engine, Options{})
	sample := fixSamples[0]
	engine.Classify(&sample)
	key, ok := serve.SampleKey(&sample)
	if !ok {
		t.Fatal("fixture sample has no key")
	}

	body := &replayBody{data: []byte(`{"exe":"probe","sha256":"` + hex.EncodeToString(key[:]) + `"}`)}
	req, err := http.NewRequest(http.MethodPost, "/v1/classify", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Body = body
	req.ContentLength = int64(len(body.data))
	w := &nullResponseWriter{h: make(http.Header, 4)}
	h := s.Handler()

	// Prime pools and verify the path actually hits.
	before := s.hashFirstHits.Value()
	h.ServeHTTP(w, req)
	if w.code != http.StatusOK || s.hashFirstHits.Value() != before+1 {
		t.Fatalf("warm probe: code %d, hits %v -> %v", w.code, before, s.hashFirstHits.Value())
	}
	allocs := testing.AllocsPerRun(200, func() {
		body.off = 0
		w.code = 0
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("warm probe in loop: code %d", w.code)
	}
	if allocs != 0 {
		t.Fatalf("warm hash-first hit allocates %.1f times per request, want 0", allocs)
	}
}

// TestRawStreamCachedAllocs pins the raw leg's allocations on a cached
// upload, with BenchmarkClassifyHTTPRawStream/1MiB's setup: the body is
// featurised in full and answered from the prediction cache. A sample
// that escapes to the heap through the engine's backend call would add
// an allocation to every upload, hits included.
func TestRawStreamCachedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact count gated uninstrumented")
	}
	fixture(t)
	engine := serve.New(fixRF, serve.Options{})
	defer engine.Close()
	s := New(engine, Options{MaxSpillBytes: 64 << 10})
	body := append(append([]byte{}, fixBins[0]...), make([]byte, 1<<20-len(fixBins[0]))...)
	req, err := http.NewRequest(http.MethodPost, "/v1/classify?exe=bench", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	rb := &replayBody{data: body}
	req.Body = rb
	req.ContentLength = int64(len(body))
	w := &nullResponseWriter{h: make(http.Header, 4)}
	h := s.Handler()

	h.ServeHTTP(w, req) // classify once; every later upload hits
	if w.code != http.StatusOK {
		t.Fatalf("first upload: code %d", w.code)
	}
	allocs := testing.AllocsPerRun(20, func() {
		rb.off = 0
		w.code = 0
		h.ServeHTTP(w, req)
	})
	if w.code != http.StatusOK {
		t.Fatalf("cached upload in loop: code %d", w.code)
	}
	if st := engine.Stats(); st.Misses != 1 {
		t.Fatalf("cached uploads missed the cache: %+v", st)
	}
	const bound = 9
	if allocs > bound {
		t.Fatalf("cached raw-leg upload allocates %.1f times per request, want <= %d", allocs, bound)
	}
}
