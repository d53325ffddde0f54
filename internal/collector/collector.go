// Package collector implements the paper's envisioned data-collection
// mechanism: a scheduler prolog hook (the paper points at Yamamoto et
// al.'s Slurm prolog approach) that captures the executable of every job
// submission. Because "users frequently execute jobs by changing the
// input data and not the application executable" (§1), the collector
// first matches the binary's cryptographic hash against everything seen
// before; only genuinely new binaries pay for feature extraction. The
// paper's fuzzy classification then runs exclusively on the novel
// executables.
//
// The extraction cache is the same sharded LRU structure, under the same
// SHA-256 key, as the serving engine's prediction cache (package serve):
// one content digest identifies the binary through extraction,
// classification and prediction reuse alike. The HTTP serving legs do
// not use it: they see a body's digest only after streaming it through
// dataset.FromReader, when there is no extraction left to skip.
//
// Concurrency contract: a Collector is safe for concurrent Collect,
// CollectStream and Stats calls from any number of scheduler hooks.
// Concurrent collections of the same new binary may each pay
// extraction, but the cache insert is first-write-wins (and may evict
// the least recently used entry of a bounded cache): every caller
// receives the winner's sample, so downstream layers never see two
// feature extractions of one content digest.
package collector

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/serve"
)

// Stats counts collector activity.
type Stats struct {
	// Seen is the number of Collect calls.
	Seen int
	// Unique is the number of distinct binaries extracted.
	Unique int
	// CacheHits counts repeated executions recognised by exact hash.
	CacheHits int
	// Evicted counts cache entries dropped to respect MaxEntries.
	Evicted int
}

// Options configures a Collector.
type Options struct {
	// MaxEntries bounds the extraction cache; 0 means unbounded. When
	// full, the least recently used entry is evicted (collection
	// daemons run for months).
	MaxEntries int
}

// Collector deduplicates and extracts job executables. It is safe for
// concurrent use by many scheduler hooks.
type Collector struct {
	opt   Options
	cache *serve.Cache[*dataset.Sample]

	seen, unique, hits atomic.Int64
}

// New returns an empty collector.
func New(opt Options) *Collector {
	return &Collector{
		opt:   opt,
		cache: serve.NewCache[*dataset.Sample](opt.MaxEntries),
	}
}

// Collect ingests one observed execution of exe with the given binary
// content. It returns the extracted sample and whether it was served from
// the exact-hash cache. The sample's Class and Version are left empty:
// user-submitted binaries are unlabelled by definition — labelling them
// is the classifier's job.
func (c *Collector) Collect(exe string, bin []byte) (dataset.Sample, bool, error) {
	key := serve.KeyOf(bin)
	c.seen.Add(1)
	if cached, ok := c.cache.Get(key); ok {
		c.hits.Add(1)
		out := *cached
		out.Exe = exe // name may differ between executions; content rules
		return out, true, nil
	}

	// Extraction happens outside any lock: it is the expensive part and
	// distinct binaries extract independently.
	s, err := dataset.FromBinary("", "", exe, bin)
	if err != nil {
		return dataset.Sample{}, false, fmt.Errorf("collector: %w", err)
	}

	stored := s
	if winner, inserted := c.cache.Add(key, &stored); !inserted {
		// Another hook extracted the same binary concurrently.
		c.hits.Add(1)
		out := *winner
		out.Exe = exe
		return out, true, nil
	}
	c.unique.Add(1)
	return s, false, nil
}

// CollectStream ingests one observed execution whose binary content is
// streamed out of r: the streaming form of Collect, extracting features
// incrementally (see dataset.FromReader). Memory per call is bounded by
// maxSpill, the ELF spill buffer (<= 0 selects dataset.DefaultMaxSpill);
// only the spill grows with the binary, up to that bound. The content
// key is the SHA-256 computed in the same single pass, so deduplication
// costs no extra read. Unlike Collect, a repeated binary still pays
// extraction — the key is only known once the stream has been consumed
// — but it is recognised afterwards and reported cached, keeping the
// Stats contract. Samples whose structural features were truncated by
// the spill bound are returned but not cached, so a later request with
// a higher bound (or the buffered path) can still produce the complete
// sample.
func (c *Collector) CollectStream(exe string, r io.Reader, maxSpill int) (dataset.Sample, bool, error) {
	c.seen.Add(1)
	s, info, err := dataset.FromReader("", "", exe, r, maxSpill)
	if err != nil {
		return dataset.Sample{}, false, fmt.Errorf("collector: %w", err)
	}
	key := serve.Key(s.SHA256)
	if cached, ok := c.cache.Get(key); ok {
		c.hits.Add(1)
		out := *cached
		out.Exe = exe
		return out, true, nil
	}
	if !info.Complete {
		return s, false, nil
	}
	stored := s
	if winner, inserted := c.cache.Add(key, &stored); !inserted {
		c.hits.Add(1)
		out := *winner
		out.Exe = exe
		return out, true, nil
	}
	c.unique.Add(1)
	return s, false, nil
}

// Stats returns a snapshot of the collector's counters.
func (c *Collector) Stats() Stats {
	return Stats{
		Seen:      int(c.seen.Load()),
		Unique:    int(c.unique.Load()),
		CacheHits: int(c.hits.Load()),
		Evicted:   int(c.cache.Evicted()),
	}
}
