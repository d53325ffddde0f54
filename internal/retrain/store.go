package retrain

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
)

// StoreOptions configures a training Store. The zero value selects
// defaults.
type StoreOptions struct {
	// Cap bounds the total number of stored samples. When full, the
	// oldest sample of the most-populated class is evicted, so pressure
	// always shrinks the class that can best afford it and the reservoir
	// stays class-balanced under skewed traffic. Default 4096; negative
	// means unbounded.
	Cap int
	// Path, when non-empty, persists the store as a JSON-lines file so a
	// restart does not lose the harvested corpus. New opens an existing
	// file; Save writes atomically (temp file + rename).
	Path string
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.Cap == 0 {
		o.Cap = 4096
	}
	return o
}

// storeEntry is one harvested sample with its arrival order.
type storeEntry struct {
	sample dataset.Sample
	seq    uint64
}

// Store is a bounded, class-balanced reservoir of labelled training
// samples — the corpus the background retrainer fits candidates on.
// Samples are deduplicated by content digest (the same SHA-256 key the
// serving cache uses), so resubmissions of one binary occupy one slot.
// Labels have provenance: an authoritative label (operator ground
// truth) may relabel a stored entry of the same content; a
// non-authoritative one (model self-labelling) never overrides anything
// already stored, so a confident misprediction cannot flip an operator
// correction back.
//
// Concurrency contract: every method is safe for concurrent use; Add on
// the harvest path takes one short mutex. Snapshot and PerClass return
// copies, never internal state.
type Store struct {
	opt StoreOptions

	mu      sync.Mutex
	byClass map[string][]storeEntry // arrival order per class, oldest first
	keys    map[serve.Key]keyInfo   // content digest -> label provenance
	size    int
	seq     uint64
	evicted uint64
}

// keyInfo is the stored label of one content digest and whether it is
// authoritative (operator ground truth) or a model self-label.
type keyInfo struct {
	class  string
	ground bool
}

// NewStore builds a store. When opt.Path names an existing file its
// samples are loaded (oldest first, re-capped); a missing file is an
// empty store, not an error.
func NewStore(opt StoreOptions) (*Store, error) {
	s := &Store{
		opt:     opt.withDefaults(),
		byClass: map[string][]storeEntry{},
		keys:    map[serve.Key]keyInfo{},
	}
	if s.opt.Path != "" {
		if err := s.load(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Add inserts one labelled sample (its Class field carries the label)
// and reports whether the store changed. authoritative marks operator
// ground truth. Samples without a class or labelled unknown are
// skipped. For content already stored: the same label is a duplicate
// (skipped, though ground truth upgrades the entry's provenance); a
// different label relabels the entry when authoritative and is dropped
// when not — self-training never overrides what the store holds. When
// the cap is exceeded the oldest sample of the largest class is evicted
// first.
func (s *Store) Add(sample dataset.Sample, authoritative bool) bool {
	if sample.Class == "" || sample.Class == unknownLabel {
		return false
	}
	key, keyed := serve.SampleKey(&sample)
	s.mu.Lock()
	defer s.mu.Unlock()
	if keyed {
		if info, dup := s.keys[key]; dup {
			if info.class == sample.Class || !authoritative {
				if authoritative && !info.ground {
					info.ground = true
					s.keys[key] = info
				}
				return false
			}
			// Authoritative relabel: the operator's class replaces the
			// stored entry for this content.
			s.removeEntry(info.class, key)
		}
		s.keys[key] = keyInfo{class: sample.Class, ground: authoritative}
	}
	s.byClass[sample.Class] = append(s.byClass[sample.Class], storeEntry{sample: sample, seq: s.seq})
	s.seq++
	s.size++
	for s.opt.Cap > 0 && s.size > s.opt.Cap {
		s.evictOldestOfLargest()
	}
	return true
}

// removeEntry drops the entry of one content digest from a class list.
// Callers hold s.mu.
func (s *Store) removeEntry(class string, key serve.Key) {
	entries := s.byClass[class]
	for i := range entries {
		k, keyed := serve.SampleKey(&entries[i].sample)
		if keyed && k == key {
			s.byClass[class] = append(entries[:i:i], entries[i+1:]...)
			if len(s.byClass[class]) == 0 {
				delete(s.byClass, class)
			}
			s.size--
			return
		}
	}
}

// evictOldestOfLargest drops the oldest entry of the most-populated
// class; ties between equally large classes break toward the one whose
// oldest entry arrived first, so eviction order is deterministic and
// globally oldest-first among the largest classes. Callers hold s.mu.
func (s *Store) evictOldestOfLargest() {
	victim := ""
	best, bestSeq := -1, uint64(0)
	for class, entries := range s.byClass {
		n := len(entries)
		if n == 0 {
			continue
		}
		head := entries[0].seq
		if n > best || (n == best && head < bestSeq) {
			victim, best, bestSeq = class, n, head
		}
	}
	if victim == "" {
		return
	}
	entries := s.byClass[victim]
	old := entries[0]
	if len(entries) == 1 {
		delete(s.byClass, victim)
	} else {
		s.byClass[victim] = entries[1:]
	}
	if key, keyed := serve.SampleKey(&old.sample); keyed {
		delete(s.keys, key)
	}
	s.size--
	s.evicted++
}

// Len returns the number of stored samples.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Evicted returns the number of samples dropped to respect the cap.
func (s *Store) Evicted() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// PerClass returns the current sample count per class.
func (s *Store) PerClass() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.byClass))
	for class, entries := range s.byClass {
		out[class] = len(entries)
	}
	return out
}

// Snapshot returns a copy of the stored samples in arrival order
// (oldest first), the order persistence preserves.
func (s *Store) Snapshot() []dataset.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	type seqSample struct {
		seq    uint64
		sample dataset.Sample
	}
	all := make([]seqSample, 0, s.size)
	for _, entries := range s.byClass {
		for _, e := range entries {
			all = append(all, seqSample{seq: e.seq, sample: e.sample})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]dataset.Sample, len(all))
	for i := range all {
		out[i] = all[i].sample
	}
	return out
}

// Save persists the store to its configured path, atomically. A store
// without a path is memory-only and Save is a no-op.
func (s *Store) Save() error {
	if s.opt.Path == "" {
		return nil
	}
	snapshot := s.Snapshot()
	err := core.WriteFileAtomic(s.opt.Path, func(w io.Writer) error {
		return dataset.SaveSamples(w, snapshot)
	})
	if err != nil {
		return fmt.Errorf("retrain: saving store: %w", err)
	}
	return nil
}

// load reads the persisted samples back, re-applying Add so dedup and
// the cap hold for whatever is on disk. Reloaded labels are treated as
// authoritative: the file does not record provenance, and conservatism
// means self-labelling cannot flip a label that may have been an
// operator correction (a new operator label still can).
func (s *Store) load() error {
	f, err := os.Open(s.opt.Path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("retrain: loading store: %w", err)
	}
	defer f.Close()
	samples, err := dataset.LoadSamples(f)
	if err != nil {
		return fmt.Errorf("retrain: loading store %s: %w", s.opt.Path, err)
	}
	for i := range samples {
		s.Add(samples[i], true)
	}
	return nil
}
