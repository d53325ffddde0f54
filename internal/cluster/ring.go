package cluster

import (
	"encoding/binary"
	"sort"
	"strconv"

	"repro/internal/serve"
)

// ring is the consistent-hash ring: every worker contributes Replicas
// virtual-node points, and a key routes to the worker owning the first
// point clockwise of the key's own point. The ring is immutable after
// construction — membership changes flip the workers' ready bits, and
// candidates skips non-ready workers in ring order, so an ejected
// worker's keys fall deterministically to the next distinct shard and
// come back when it does.
type ring struct {
	points []uint64  // vnode positions, ascending
	owner  []*Worker // owner[i] owns points[i]
}

// fnv64a is FNV-1a over s; inlined rather than hash/fnv so vnode
// placement is a frozen constant of the package, not of a dependency.
// Over raw bytes it is the routing fallback for payloads that have no
// extractable cache key.
func fnv64a[T string | []byte](s T) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finaliser. FNV-1a over short, similar vnode
// labels ("w1#0", "w1#1", ...) leaves the low bits correlated, which
// skews shard shares badly; the finaliser avalanches every input bit
// across the point. Frozen: changing it moves every key.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// vnodePoint is the ring position of the named worker's i-th virtual
// node. Frozen: changing it moves every key.
func vnodePoint(name string, i int) uint64 {
	return mix64(fnv64a(name + "#" + strconv.Itoa(i)))
}

// buildRing places replicas vnode points per worker. Point collisions
// (astronomically unlikely across 64-bit points) resolve by worker
// registration order, deterministically.
func buildRing(workers []*Worker, replicas int) *ring {
	type vnode struct {
		point uint64
		w     *Worker
	}
	vns := make([]vnode, 0, len(workers)*replicas)
	for _, w := range workers {
		for i := 0; i < replicas; i++ {
			vns = append(vns, vnode{vnodePoint(w.name, i), w})
		}
	}
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].point != vns[j].point {
			return vns[i].point < vns[j].point
		}
		return vns[i].w.idx < vns[j].w.idx
	})
	r := &ring{
		points: make([]uint64, len(vns)),
		owner:  make([]*Worker, len(vns)),
	}
	for i, v := range vns {
		r.points[i] = v.point
		r.owner[i] = v.w
	}
	return r
}

// pointOf maps an engine cache key onto the ring. serve.Key is a
// SHA-256, already uniform, so the first eight bytes are the point.
func pointOf(key serve.Key) uint64 {
	return binary.BigEndian.Uint64(key[:8])
}

// candidates appends to dst the distinct ready workers in ring order
// starting at the owner of point h: dst[0] is the key's shard, dst[1]
// the hedge/retry target, and so on. Workers whose ready bit is down
// are skipped entirely, which is what makes affinity deterministic
// under churn. Returns dst (possibly empty when the whole fleet is
// ejected).
//
// fhc:hotpath candidates runs once per routed request.
func (r *ring) candidates(h uint64, dst []*Worker, max int) []*Worker {
	n := len(r.points)
	if n == 0 {
		return dst
	}
	// First vnode clockwise of h.
	start := sort.Search(n, func(i int) bool { return r.points[i] >= h })
	var taken [maxWorkers]bool // worker idx set; New caps the fleet
	for i := 0; i < n && len(dst) < max; i++ {
		w := r.owner[(start+i)%n]
		if taken[w.idx] || !w.ready.Load() {
			continue
		}
		taken[w.idx] = true
		dst = append(dst, w)
	}
	return dst
}
