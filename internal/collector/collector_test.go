package collector

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/synth"
)

// binaries returns n distinct valid ELF binaries.
func binaries(t *testing.T, n int) [][]byte {
	t.Helper()
	c, err := synth.Generate([]synth.ClassSpec{{Name: "Coll", Samples: n}}, synth.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, 0, n)
	for i := range c.Samples {
		out = append(out, c.Samples[i].Binary)
	}
	if len(out) < n {
		t.Fatalf("only %d binaries generated", len(out))
	}
	return out[:n]
}

func TestCollectExtractsAndCaches(t *testing.T) {
	bins := binaries(t, 3)
	c := New(Options{})
	s1, hit, err := c.Collect("a.out", bins[0])
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first collection reported a cache hit")
	}
	if s1.Digests[0].IsZero() {
		t.Fatal("collected sample has no file digest")
	}
	// Same content, different name: cache hit, name updated.
	s2, hit, err := c.Collect("renamed.bin", bins[0])
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("repeat execution not recognised")
	}
	if s2.Exe != "renamed.bin" {
		t.Fatalf("exe = %q", s2.Exe)
	}
	if s2.SHA256 != s1.SHA256 || s2.Digests != s1.Digests {
		t.Fatal("cached sample features differ from original")
	}
	stats := c.Stats()
	if stats.Seen != 2 || stats.Unique != 1 || stats.CacheHits != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCollectStream(t *testing.T) {
	bins := binaries(t, 2)
	c := New(Options{})
	s1, hit, err := c.CollectStream("a.out", bytes.NewReader(bins[0]), 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first streamed collection reported a cache hit")
	}
	// The streamed sample must match the buffered path exactly.
	want, err := dataset.FromBinary("", "", "a.out", bins[0])
	if err != nil {
		t.Fatal(err)
	}
	if s1 != want {
		t.Fatalf("streamed sample differs from buffered:\n got %+v\nwant %+v", s1, want)
	}
	// Same content streamed again: recognised as cached, name updated.
	s2, hit, err := c.CollectStream("renamed.bin", bytes.NewReader(bins[0]), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || s2.Exe != "renamed.bin" || s2.SHA256 != s1.SHA256 {
		t.Fatalf("repeat stream: hit=%v sample=%+v", hit, s2)
	}
	// Streaming and buffered collection share one cache.
	_, hit, err = c.Collect("a.out", bins[0])
	if err != nil || !hit {
		t.Fatalf("buffered collect after stream: hit=%v err=%v", hit, err)
	}
	if st := c.Stats(); st.Seen != 3 || st.Unique != 1 || st.CacheHits != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Non-ELF streams are rejected.
	if _, _, err := c.CollectStream("s.sh", strings.NewReader("#!/bin/sh\n"), 0); err == nil {
		t.Fatal("script accepted")
	}
}

func TestCollectStreamTruncatedNotCached(t *testing.T) {
	bins := binaries(t, 1)
	c := New(Options{})
	s, hit, err := c.CollectStream("big", bytes.NewReader(bins[0]), len(bins[0])/2)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("truncated stream reported cached")
	}
	if s.Digests[dataset.FeatureFile].IsZero() {
		t.Fatal("truncated stream lost the file digest")
	}
	if known(c, bins[0]) {
		t.Fatal("truncated sample was cached")
	}
	// A later full collection produces and caches the complete sample.
	full, hit, err := c.CollectStream("big", bytes.NewReader(bins[0]), 0)
	if err != nil || hit {
		t.Fatalf("full re-stream: hit=%v err=%v", hit, err)
	}
	if full.Digests[dataset.FeatureSymbols].IsZero() {
		t.Fatal("full re-stream missing symbols digest")
	}
	if !known(c, bins[0]) {
		t.Fatal("complete sample not cached")
	}
}

func TestCollectRejectsNonELF(t *testing.T) {
	c := New(Options{})
	if _, _, err := c.Collect("script.sh", []byte("#!/bin/sh\n")); err == nil {
		t.Fatal("script accepted")
	}
	if got := c.Stats().Unique; got != 0 {
		t.Fatalf("failed collection cached: %d unique", got)
	}
}

func TestEviction(t *testing.T) {
	bins := binaries(t, 4)
	c := New(Options{MaxEntries: 2})
	for _, b := range bins[:3] {
		if _, _, err := c.Collect("x", b); err != nil {
			t.Fatal(err)
		}
	}
	stats := c.Stats()
	if stats.Evicted != 1 {
		t.Fatalf("evicted = %d, want 1", stats.Evicted)
	}
	if known(c, bins[0]) {
		t.Fatal("oldest entry still cached after eviction")
	}
	if !known(c, bins[1]) || !known(c, bins[2]) {
		t.Fatal("recent entries evicted")
	}
	// Re-collecting the evicted binary re-extracts it.
	_, hit, err := c.Collect("x", bins[0])
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("evicted binary served from cache")
	}
}

func TestConcurrentCollect(t *testing.T) {
	bins := binaries(t, 4)
	c := New(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := c.Collect("x", bins[i%len(bins)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stats := c.Stats()
	if stats.Unique != len(bins) {
		t.Fatalf("unique = %d, want %d", stats.Unique, len(bins))
	}
	if stats.Seen != 160 {
		t.Fatalf("seen = %d, want 160", stats.Seen)
	}
	if stats.CacheHits != stats.Seen-stats.Unique {
		t.Fatalf("hit accounting off: %+v", stats)
	}
}

func TestKnown(t *testing.T) {
	bins := binaries(t, 1)
	c := New(Options{})
	if known(c, bins[0]) {
		t.Fatal("empty collector knows a binary")
	}
	if _, _, err := c.Collect("x", bins[0]); err != nil {
		t.Fatal(err)
	}
	if !known(c, bins[0]) {
		t.Fatal("collected binary not known")
	}
}

// known reports whether a binary with this content is in c's extraction
// cache. The lookup marks a present entry most recently used.
func known(c *Collector, bin []byte) bool {
	_, ok := c.cache.Get(serve.KeyOf(bin))
	return ok
}
