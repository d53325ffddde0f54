package ssdeep

// Streaming CTPH: the single-pass, O(1)-memory form of HashBytes.
//
// CTPH cannot pick its block size until the total length is known, so a
// buffered implementation guesses from len(data) and re-hashes at
// half the block size when the signature comes out too short. A stream
// gets neither the length up front nor a second pass, so the Hasher
// maintains every candidate block size concurrently: one small context
// per size 3·2^k holding the signature accumulated at that size. Three
// observations keep that affordable:
//
//   - a trigger at block size 2b is always a trigger at block size b
//     (b divides 2b), so contexts activate lazily: context k+1 is
//     forked at context k's first trigger, at which moment its
//     piecewise hash still equals the never-reset hash of the whole
//     prefix — before that first trigger the two are indistinguishable;
//   - once context k+1 has accumulated SpamsumLength/2 signature
//     characters, the halving retry can never select block size 3·2^k
//     or below, so the smallest contexts retire as the input grows and
//     the active window stays small (~6 contexts in steady state);
//   - the double-block-size signature (Sig2, capped at 31 characters)
//     appends in lockstep with the same context's full signature until
//     the cap, so it is a prefix of the full signature — only its
//     residue hash needs tracking separately after they diverge.
//
// The result is bit-identical to HashBytes — the buffered
// implementation is retained as the differential oracle (see
// FuzzHashStreamingMatchesBytes) — for every input below 3·2^30·64
// bytes (~192 GiB), where both implementations run out of uint32 block
// sizes.

import "sync"

// maxContexts bounds the candidate block sizes a Hasher tracks:
// 3·2^0 .. 3·2^30, the largest CTPH block size representable in the
// digest's uint32 field.
const maxContexts = 31

// blockCtx accumulates the signature at one candidate block size.
type blockCtx struct {
	// full holds the signature characters appended so far, up to the
	// SpamsumLength-1 cap of the buffered implementation; the residue
	// character is appended only at Sum time.
	full [SpamsumLength - 1]byte
	// flen is the populated length of full.
	flen uint8
	// h is the FNV-style piecewise chunk hash, reset after each append
	// while full is under its cap — exactly the h1 of hashAtBlockSize.
	h uint32
	// halfH tracks the double-block-size signature's residue hash after
	// it diverges from h. The half signature (Sig2 of the next-smaller
	// block size) appends in lockstep with full until it caps at
	// SpamsumLength/2-1 characters; from the following trigger on, full
	// keeps resetting h while the half hash accumulates unreset.
	halfH    uint32
	diverged bool
}

// Hasher is the streaming form of HashBytes: feed it bytes with Write
// in chunks of any size — one byte at a time included — and Sum
// produces the digest HashBytes would return for the concatenation.
// Memory use is constant regardless of input size.
//
// A Hasher must not be used concurrently from multiple goroutines.
// Writing more bytes after Sum is permitted: Sum does not reset state,
// so a later Sum covers everything written so far.
type Hasher struct {
	roll rollState
	n    uint64 // total bytes written
	// [bhstart, bhend) is the active context window. Contexts below
	// bhstart retired (their block size can no longer be selected);
	// contexts at bhend and above have never seen a trigger, so their
	// piecewise hash still equals the top context's never-reset hash.
	bhstart, bhend int
	ctx            [maxContexts]blockCtx
}

// hasherPool recycles Hasher state (a few KiB per instance) across
// requests; the serving ingestion path runs one Hasher per feature
// channel per request.
var hasherPool = sync.Pool{New: func() any { return new(Hasher) }}

// NewHasher returns a ready Hasher drawn from an internal pool. Call
// Release when done to recycle it; a forgotten Release only costs the
// garbage collector.
func NewHasher() *Hasher {
	h := hasherPool.Get().(*Hasher)
	h.Reset()
	return h
}

// Release returns the Hasher to the pool. The Hasher must not be used
// after Release.
func (h *Hasher) Release() { hasherPool.Put(h) }

// Reset returns the Hasher to its initial state.
func (h *Hasher) Reset() {
	for i := range h.ctx[:h.bhend] {
		h.ctx[i] = blockCtx{}
	}
	h.roll = rollState{}
	h.n = 0
	h.bhstart = 0
	h.bhend = 1
	h.ctx[0].h = hashInit
}

// Write absorbs p into the digest state. It never fails; the error is
// the io.Writer contract.
//
// fhc:hotpath
func (h *Hasher) Write(p []byte) (int, error) {
	for _, c := range p {
		rh := h.roll.roll(c)
		h.n++
		// Every active context absorbs the byte into its piecewise
		// hash; diverged half hashes accumulate alongside.
		for i := h.bhstart; i < h.bhend; i++ {
			ctx := &h.ctx[i]
			ctx.h = ctx.h*hashPrime ^ uint32(c)
			if ctx.diverged {
				ctx.halfH = ctx.halfH*hashPrime ^ uint32(c)
			}
		}
		// Trigger cascade, smallest active block size first: a trigger
		// at 2b implies one at b, so the first non-trigger ends it.
		bs := uint32(MinBlockSize) << h.bhstart
		for i := h.bhstart; i < h.bhend; i++ {
			if rh%bs != bs-1 {
				break
			}
			ctx := &h.ctx[i]
			if i == h.bhend-1 && h.bhend < maxContexts {
				// First trigger of the top context: fork the next block
				// size. It has never triggered (its triggers are a
				// subset of this one's), so its piecewise hash is the
				// pre-reset hash of the whole prefix — exactly ctx.h
				// right now. The loop then visits the fork with the
				// same rolling hash, cascading further if it triggers.
				h.ctx[h.bhend] = blockCtx{h: ctx.h}
				h.bhend++
			}
			if !ctx.diverged && ctx.flen >= SpamsumLength/2-1 {
				// The half signature capped at the previous trigger;
				// from here its residue hash never resets again.
				ctx.diverged = true
				ctx.halfH = ctx.h
			}
			if ctx.flen < SpamsumLength-1 {
				ctx.full[ctx.flen] = b64[ctx.h%64]
				ctx.flen++
				ctx.h = hashInit
			}
			bs *= 2
		}
	}
	// Retire block sizes the halving retry can no longer select: once
	// the input outgrew 3·2^k·SpamsumLength bytes the guess sits above
	// k, and once context k+1 holds SpamsumLength/2 characters the
	// halving loop stops at or above k+1 — both are monotone, so
	// context k is dead. (Reading ctx[bhstart+1] of a context never
	// forked sees flen 0 and keeps the window.)
	for h.bhstart < maxContexts-2 &&
		uint64(uint32(MinBlockSize)<<h.bhstart)*SpamsumLength < h.n &&
		h.ctx[h.bhstart+1].flen >= SpamsumLength/2 {
		h.bhstart++
	}
	return len(p), nil
}

// Sum returns the digest of everything written so far, bit-identical
// to HashBytes over the same bytes. It does not modify state: callers
// may keep writing, and a second Sum returns the same digest.
func (h *Hasher) Sum() (Digest, error) {
	if h.n == 0 {
		return Digest{}, ErrEmptyInput
	}
	// Initial guess, exactly as HashBytes: the smallest block size
	// whose expected signature length fits SpamsumLength.
	bi := 0
	for bi < maxContexts-1 && uint64(uint32(MinBlockSize)<<bi)*SpamsumLength < h.n {
		bi++
	}
	residue := h.roll.h1+h.roll.h2+h.roll.h3 != 0
	// The halving retry: too few trigger points at the guessed size
	// means too short a signature; drop to the next smaller block size
	// to regain resolution. bhstart is a floor by construction — a
	// context only retires once the context above it holds enough
	// characters to stop this loop.
	for bi > h.bhstart {
		l := int(h.ctx[bi].flen)
		if residue {
			l++
		}
		if l >= SpamsumLength/2 {
			break
		}
		bi--
	}

	var s1 [SpamsumLength]byte
	var s2 [SpamsumLength / 2]byte
	c1 := &h.ctx[bi]
	n1 := copy(s1[:], c1.full[:c1.flen])
	if residue {
		s1[n1] = b64[c1.h%64]
		n1++
	}
	// Sig2 is the half view of the next block size up: its first
	// SpamsumLength/2-1 characters plus its own residue hash.
	var n2 int
	if bi+1 < h.bhend {
		c2 := &h.ctx[bi+1]
		hl := int(c2.flen)
		if hl > SpamsumLength/2-1 {
			hl = SpamsumLength/2 - 1
		}
		n2 = copy(s2[:], c2.full[:hl])
		hh := c2.h
		if c2.diverged {
			hh = c2.halfH
		}
		if residue {
			s2[n2] = b64[hh%64]
			n2++
		}
	} else if residue {
		// The double block size never saw a trigger (it was never even
		// forked), so its piecewise hash is the never-reset hash of the
		// whole input — which the top context still holds.
		s2[0] = b64[h.ctx[h.bhend-1].h%64]
		n2 = 1
	}
	return Digest{
		BlockSize: uint32(MinBlockSize) << bi,
		Sig1:      string(s1[:n1]),
		Sig2:      string(s2[:n2]),
	}, nil
}
