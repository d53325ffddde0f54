package collector

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/dataset"
)

// failingReader yields a prefix then fails, like an upload cut mid-body.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestCollectStreamTruncatedNeverCached pins the cache-hygiene
// contract: a sample whose structural features were skipped because
// the stream exceeded the spill bound must never enter the extraction
// cache — otherwise one oversized upload would poison every later
// classification of the same binary with a feature-poor sample.
func TestCollectStreamTruncatedNeverCached(t *testing.T) {
	bin := binaries(t, 1)[0]
	c := New(Options{})

	s1, hit, err := c.CollectStream("big", bytes.NewReader(bin), 64)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first truncated collection reported a hit")
	}
	if !s1.Digests[dataset.FeatureSymbols].IsZero() {
		t.Fatal("truncated sample carries structural digests")
	}
	if known(c, bin) {
		t.Fatal("truncated sample entered the extraction cache")
	}
	// A repeat truncated collection recomputes — still no hit, still
	// not cached.
	if _, hit, err = c.CollectStream("big", bytes.NewReader(bin), 64); err != nil || hit {
		t.Fatalf("repeat truncated collection: hit=%v err=%v", hit, err)
	}
	if got := c.Stats(); got.Unique != 0 || got.CacheHits != 0 || got.Seen != 2 {
		t.Fatalf("stats after truncated collections: %+v", got)
	}

	// The same binary collected completely is cached as usual, with the
	// full feature set — the truncated pass left no trace behind.
	full, hit, err := c.CollectStream("big", bytes.NewReader(bin), 0)
	if err != nil || hit {
		t.Fatalf("complete collection: hit=%v err=%v", hit, err)
	}
	if !known(c, bin) {
		t.Fatal("complete sample missing from the extraction cache")
	}
	again, hit, err := c.CollectStream("big", bytes.NewReader(bin), 0)
	if err != nil || !hit {
		t.Fatalf("repeat complete collection: hit=%v err=%v", hit, err)
	}
	if again.SHA256 != full.SHA256 || again.Digests != full.Digests {
		t.Fatal("cached sample differs from the collected one")
	}

	// A truncated collection AFTER the complete one is a legitimate
	// cache hit — same content hash, full features already on file.
	fromCache, hit, err := c.CollectStream("big", bytes.NewReader(bin), 64)
	if err != nil || !hit {
		t.Fatalf("truncated re-collection of a cached binary: hit=%v err=%v", hit, err)
	}
	if fromCache.Digests != full.Digests {
		t.Fatal("cache hit served feature-poor sample")
	}
}

// TestCollectStreamMidStreamError: a stream that dies mid-body is an
// error, counts as seen, and caches nothing.
func TestCollectStreamMidStreamError(t *testing.T) {
	bin := binaries(t, 1)[0]
	c := New(Options{})
	broken := errors.New("peer reset")
	_, _, err := c.CollectStream("dying", &failingReader{data: bin[:100], err: broken}, 0)
	if !errors.Is(err, broken) {
		t.Fatalf("mid-stream error: %v", err)
	}
	if known(c, bin) {
		t.Fatal("failed stream entered the extraction cache")
	}
	if got := c.Stats(); got.Seen != 1 || got.Unique != 0 {
		t.Fatalf("stats after failed stream: %+v", got)
	}
}
