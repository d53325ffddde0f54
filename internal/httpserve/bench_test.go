package httpserve

import (
	"bytes"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/collector"
	"repro/internal/serve"
)

// BenchmarkHTTPClassify measures the warm path — duplicate submissions
// answered from the prediction cache — through the full network stack:
// JSON encode, HTTP round trip, base64 decode, streaming digest
// extraction, engine cache hit, JSON response. Compare against BenchmarkEngineClassify,
// the same warm path without HTTP, to read the wire tax.
func BenchmarkHTTPClassify(b *testing.B) {
	fixture(b)
	engine := serve.New(fixRF, serve.Options{})
	defer engine.Close()
	s := New(engine, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	payload, err := json.Marshal(ClassifyRequest{
		Exe: "bench", BinaryB64: base64.StdEncoding.EncodeToString(fixBins[0]),
	})
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	warm := func() {
		resp, err := client.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	warm() // prime extraction and prediction caches

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(payload))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
}

// BenchmarkClassifyHTTPRawStream measures the raw octet-stream leg —
// handler driven directly, no sockets — at two body sizes. With the
// spill bound set below the body size, B/op stays flat from 1 MiB to
// 64 MiB: the body is featurised off the wire through pooled
// fixed-size scratch, never materialised. The default spill bound
// (MaxBodyBytes) holds up to the whole body and is not measured here.
func BenchmarkClassifyHTTPRawStream(b *testing.B) {
	fixture(b)
	for _, mib := range []int{1, 64} {
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			engine := serve.New(fixRF, serve.Options{})
			defer engine.Close()
			// A small spill bound keeps per-request memory constant;
			// binaries beyond it stream through on the single-pass
			// features alone (see dataset.FromReader).
			s := New(engine, Options{MaxSpillBytes: 64 << 10})
			body := append(append([]byte{}, fixBins[0]...),
				make([]byte, mib<<20-len(fixBins[0]))...)
			req, err := http.NewRequest(http.MethodPost, "/v1/classify?exe=bench", nil)
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/octet-stream")
			rb := &replayBody{data: body}
			req.Body = rb
			req.ContentLength = int64(len(body))
			w := &nullResponseWriter{h: make(http.Header, 4)}
			h := s.Handler()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rb.off = 0
				w.code = 0
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("status %d", w.code)
				}
			}
		})
	}
}

// BenchmarkClassifyHTTPHashFirstWarm measures the hash-first fast path
// on a prediction-cache hit: routing, instrumentation, prefix scan,
// cache lookup and hand-rendered response. The gate holds it at zero
// allocations per request.
func BenchmarkClassifyHTTPHashFirstWarm(b *testing.B) {
	fixture(b)
	engine := serve.New(fixRF, serve.Options{})
	defer engine.Close()
	s := New(engine, Options{})
	sample := fixSamples[0]
	engine.Classify(&sample)
	key, ok := serve.SampleKey(&sample)
	if !ok {
		b.Fatal("fixture sample has no key")
	}
	rb := &replayBody{data: []byte(`{"exe":"bench","sha256":"` + hex.EncodeToString(key[:]) + `"}`)}
	req, err := http.NewRequest(http.MethodPost, "/v1/classify", nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Body = rb
	req.ContentLength = int64(len(rb.data))
	w := &nullResponseWriter{h: make(http.Header, 4)}
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.off = 0
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}

// BenchmarkEngineClassify is the in-process baseline for
// BenchmarkHTTPClassify: the identical warm submission stream handed
// straight to collector + engine, no network, no JSON.
func BenchmarkEngineClassify(b *testing.B) {
	fixture(b)
	engine := serve.New(fixRF, serve.Options{})
	defer engine.Close()
	coll := collector.New(collector.Options{})
	if _, _, err := coll.Collect("bench", fixBins[0]); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sample, _, err := coll.Collect("bench", fixBins[0])
			if err != nil {
				b.Error(err)
				return
			}
			engine.Classify(&sample)
		}
	})
}
