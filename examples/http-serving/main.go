// HTTP serving: the classification engine on the network — the paper's
// Figure 1 deployment as an actual cluster service. A site model is
// trained and wrapped in fhc.NewEngine, fhc.NewHTTPServer puts the
// engine behind the versioned JSON API, and a plain net/http client
// plays the role of the scheduler prolog: it submits binaries one at a
// time and in batches, dedups re-submissions with the hash-first
// protocol (probe by SHA-256, upload the body as a raw octet-stream
// only when the server asks), hot-swaps a retrained model through the
// API with zero downtime, reads the Prometheus metrics the server
// exports, and finally drains the server gracefully.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	fhc "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("http-serving: ")

	// --- Train the site model and start the engine ---------------------
	specs := []fhc.ClassSpec{
		{Name: "GROMACS-like", Samples: 10},
		{Name: "OpenFOAM-like", Samples: 10},
		{Name: "BLAST-like", Samples: 10},
	}
	corpus, err := fhc.GenerateCorpus(specs, fhc.CorpusOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	installed, err := fhc.SamplesFromCorpus(corpus, 0)
	if err != nil {
		log.Fatal(err)
	}
	clf, err := fhc.Train(installed, fhc.Config{Threshold: 0.5, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	engine := fhc.NewEngine(clf, fhc.EngineOptions{})
	defer engine.Close()

	// --- Put the engine on the wire ------------------------------------
	server := fhc.NewHTTPServer(engine, fhc.HTTPServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", base)

	client := &http.Client{Timeout: 30 * time.Second}
	post := func(route string, req, resp any) {
		raw, err := json.Marshal(req)
		if err != nil {
			log.Fatal(err)
		}
		r, err := client.Post(base+route, "application/json", bytes.NewReader(raw))
		if err != nil {
			log.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			var buf bytes.Buffer
			buf.ReadFrom(r.Body)
			log.Fatalf("POST %s: %d %s", route, r.StatusCode, buf.String())
		}
		if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
			log.Fatal(err)
		}
	}
	// metric reads one series from the Prometheus exposition.
	metric := func(name string) string {
		r, err := client.Get(base + "/metrics")
		if err != nil {
			log.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				return v
			}
		}
		return "absent"
	}

	// --- Single submissions: cold, then the duplicate-heavy common case
	bin := corpus.Samples[0].Binary
	var pred fhc.HTTPClassifyResponse
	post("/v1/classify", fhc.HTTPClassifyRequest{
		Exe: "job-1", BinaryB64: base64.StdEncoding.EncodeToString(bin),
	}, &pred)
	fmt.Printf("cold submission:      %s (confidence %.2f)\n", pred.Label, pred.Confidence)
	// The duplicate's digests are extracted again (its SHA-256 is known
	// only once the body is read), but the prediction comes from the
	// engine cache.
	hits := metric("fhc_engine_cache_hits_total")
	post("/v1/classify", fhc.HTTPClassifyRequest{
		Exe: "job-2", BinaryB64: base64.StdEncoding.EncodeToString(bin),
	}, &pred)
	fmt.Printf("duplicate submission: %s (engine cache hits %s -> %s)\n",
		pred.Label, hits, metric("fhc_engine_cache_hits_total"))

	// --- Hash-first: probe by digest, upload only when asked -----------
	// A client that can hash locally never re-uploads a known binary:
	// it probes with the SHA-256 the serving stack already keys every
	// cache on, and only ships the body when the probe answers 404.
	fresh := corpus.Samples[1].Binary
	digest := sha256.Sum256(fresh)
	probe := fhc.HTTPClassifyRequest{Exe: "probe-job", SHA256: hex.EncodeToString(digest[:])}
	raw, err := json.Marshal(probe)
	if err != nil {
		log.Fatal(err)
	}
	r, err := client.Post(base+"/v1/classify", "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	r.Body.Close()
	fmt.Printf("cold probe:           HTTP %d (needs_body — server has not seen it)\n", r.StatusCode)

	// The body goes up as a raw octet-stream: no base64, no JSON
	// envelope — the server hashes and featurises it off the wire.
	r, err = client.Post(base+"/v1/classify?exe=probe-job", "application/octet-stream", bytes.NewReader(fresh))
	if err != nil {
		log.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&pred); err != nil {
		log.Fatal(err)
	}
	r.Body.Close()
	fmt.Printf("raw-stream upload:    %s (confidence %.2f)\n", pred.Label, pred.Confidence)

	// The warm probe is now answered from the prediction cache with
	// zero bytes of binary on the wire (and zero server allocations).
	post("/v1/classify", probe, &pred)
	fmt.Printf("warm probe:           %s (cached: %v, no body uploaded)\n", pred.Label, pred.Cached)

	// --- A burst as one batch: items are classified in parallel --------
	batch := fhc.HTTPBatchRequest{}
	for i := 1; i <= 8; i++ {
		batch.Samples = append(batch.Samples, fhc.HTTPClassifyRequest{
			Exe:       fmt.Sprintf("burst-%d", i),
			BinaryB64: base64.StdEncoding.EncodeToString(corpus.Samples[(i*7)%len(corpus.Samples)].Binary),
		})
	}
	var batchResp fhc.HTTPBatchResponse
	post("/v1/classify/batch", batch, &batchResp)
	labels := map[string]int{}
	for _, r := range batchResp.Results {
		labels[r.Label]++
	}
	fmt.Printf("batch of %d:           labels %v\n", len(batchResp.Results), labels)

	// --- Hot-swap a retrained model through the API --------------------
	// A new application class appears on the cluster; the retrained
	// artifact is installed into the running server with zero downtime.
	specs = append(specs, fhc.ClassSpec{Name: "LAMMPS-like", Samples: 10})
	corpus2, err := fhc.GenerateCorpus(specs, fhc.CorpusOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	retrainSamples, err := fhc.SamplesFromCorpus(corpus2, 0)
	if err != nil {
		log.Fatal(err)
	}
	retrained, err := fhc.Train(retrainSamples, fhc.Config{Threshold: 0.5, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "http-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	artifact := filepath.Join(dir, "model-v2.json")
	f, err := os.Create(artifact)
	if err != nil {
		log.Fatal(err)
	}
	if err := retrained.Save(f); err != nil {
		log.Fatal(err)
	}
	f.Close()

	var swap fhc.HTTPSwapResponse
	post("/v1/model/swap", fhc.HTTPSwapRequest{Path: artifact}, &swap)
	fmt.Printf("hot-swap installed:   kind=%s swaps=%d\n", swap.ModelKind, swap.Swaps)

	// A class only the retrained model knows is now recognised.
	var late fhc.HTTPClassifyResponse
	for i := range corpus2.Samples {
		if corpus2.Samples[i].Class == "LAMMPS-like" {
			post("/v1/classify", fhc.HTTPClassifyRequest{
				Exe: "new-class", BinaryB64: base64.StdEncoding.EncodeToString(corpus2.Samples[i].Binary),
			}, &late)
			break
		}
	}
	fmt.Printf("new class post-swap:  %s\n", late.Label)

	// --- Observability: the Prometheus exposition ----------------------
	fmt.Println("\nselected metrics:")
	for _, name := range []string{
		"fhc_engine_cache_hits_total", "fhc_engine_cache_misses_total",
		"fhc_engine_swaps_total", "fhc_http_in_flight",
	} {
		fmt.Printf("  %s %s\n", name, metric(name))
	}

	// --- Graceful drain ------------------------------------------------
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		log.Fatal(err)
	}
	fmt.Println("\ndrained and stopped.")
}
