package ssdeep

// Streaming CTPH: the package's one CTPH implementation, single-pass
// and O(1)-memory. HashBytes is one whole-buffer Write into it.
//
// CTPH cannot pick its block size until the total length is known, so
// the reference algorithm guesses from the input length and re-hashes
// at half the block size when the signature comes out too short. A
// stream gets no second pass, so the Hasher maintains every candidate
// block size that can still be selected concurrently: one small context
// per size 3·2^k holding the signature accumulated at that size. Five
// observations keep that affordable:
//
//   - a trigger at block size 2b is always a trigger at block size b
//     (b divides 2b), so contexts activate lazily: context k+1 is
//     forked at context k's first trigger, at which moment its
//     piecewise hash still equals the never-reset hash of the whole
//     prefix — before that first trigger the two are indistinguishable;
//   - once the input outgrew 3·2^k·SpamsumLength bytes and context k+1
//     holds SpamsumLength/2 signature characters, the halving retry can
//     never select block size 3·2^k or below, so context k retires. The
//     check runs inside the byte loop at every trigger, so the window
//     slides up as the input grows whatever the Write sizes are;
//   - when the caller declares the input length up front
//     (SetTotalLength), the block-size guess is known from the first
//     byte: contexts above guess+1 can never be read and are not
//     forked, and retirement tests the declared length instead of the
//     bytes seen so far. Over 1 MiB of random input the window then
//     averages between three and four contexts; without the hint the
//     top keeps forking as the input grows and about ten stay live;
//   - the double-block-size signature (Sig2, capped at 31 characters)
//     appends in lockstep with the same context's full signature until
//     the cap, so it is a prefix of the full signature — only its
//     residue hash needs tracking separately after they diverge;
//   - the digest reads a piecewise hash only modulo 64, and
//     (h·hashPrime ⊕ c) mod 64 depends only on h mod 64, so the
//     contexts step as lanes: each piecewise and half hash is a 6-bit
//     residue in a 16-bit lane, four to a uint64, and one multiply, xor
//     and mask steps four of them. Half hashes step whether or not they
//     diverged, so no context's state is tested per byte. The four
//     lowest live contexts step in registers, any above them in place.
//
// One byte loop (step) does that stepping. It keeps the rolling hash in
// locals and reads the byte leaving the window seven back in its input,
// so it tests no position per byte, and it returns at each trigger, so
// that the cascade's call leaves its registers alone. Write runs it
// (through absorb) twice: over a 14-byte stitched head, the saved
// window in ring order followed by the first seven bytes of the Write,
// then over the Write's own bytes from the eighth on.
//
// The result is bit-identical to that guess-and-retry algorithm, which
// the tests keep as the buffered oracle (hashBytesOracle, fuzzed against
// every chunking by FuzzHashStreamingMatchesBytes), for every input
// below 3·2^30·64 bytes (~192 GiB), where both run out of uint32 block
// sizes. A declared length that the written bytes do not match makes
// Sum fail rather than return a digest of bytes it was not given.

import (
	"fmt"
	"sync"
)

// maxContexts bounds the candidate block sizes a Hasher tracks:
// 3·2^0 .. 3·2^30, the largest CTPH block size representable in the
// digest's uint32 field.
const maxContexts = 31

// The piecewise hashes as packed lanes: one 6-bit residue in each
// 16-bit lane, four lanes to a word. A residue times lanePrime stays
// below 2^11, so one multiply steps four lanes without a carry between
// them, and the xor with a byte spread over all lanes (c·laneOnes)
// touches only the low 8 bits of each.
const (
	laneWords = (maxContexts + 3) / 4 // words per hash kind
	laneOnes  = 0x0001000100010001
	laneMask  = 0x003f003f003f003f
	lanePrime = hashPrime % 64 // 19
	laneInit  = hashInit % 64  // 39
)

// stepLanes absorbs byte c, spread as cl = c·laneOnes, into the four
// residues of lanes: each becomes (h·hashPrime ⊕ c) mod 64.
func stepLanes(lanes, cl uint64) uint64 {
	return (lanes*lanePrime ^ cl) & laneMask
}

// blockCtx accumulates the signature at one candidate block size. Its
// piecewise hashes live in the Hasher's lanes.
type blockCtx struct {
	// full holds the signature characters appended so far, up to the
	// SpamsumLength-1 cap of the reference algorithm; the residue
	// character is appended only at Sum time.
	full [SpamsumLength - 1]byte
	// flen is the populated length of full.
	flen uint8
	// diverged reports that the half hash left the piecewise hash. The
	// half signature (Sig2 of the next-smaller block size) appends in
	// lockstep with full until it caps at SpamsumLength/2-1 characters;
	// from the following trigger on, full keeps resetting its piecewise
	// hash while the half hash accumulates unreset.
	diverged bool
}

// Hasher computes a fuzzy digest over a stream: feed it bytes with
// Write in chunks of any size — one byte at a time included — and Sum
// produces the digest of their concatenation, the one HashBytes returns
// for the same bytes in one buffer.
// Memory use is constant regardless of input size.
//
// A Hasher must not be used concurrently from multiple goroutines.
// Writing more bytes after Sum is permitted: Sum does not reset state,
// so a later Sum covers everything written so far.
type Hasher struct {
	// roll is the rolling hash as of the last Write, its window in the
	// reference's ring layout.
	roll rollState
	n    uint64 // total bytes written
	// total is the length declared by SetTotalLength, 0 when unknown.
	total uint64
	// [bhstart, bhend) is the active context window. Contexts below
	// bhstart retired (their block size can no longer be selected);
	// contexts at bhend and above have never seen a trigger, so their
	// piecewise hash still equals the top context's never-reset hash.
	// bhend never exceeds bhcap, which a declared length lowers.
	bhstart, bhend, bhcap int
	ctx                   [maxContexts]blockCtx
	// lanes holds the active contexts' piecewise hashes modulo 64, by
	// slot k-bhstart for context k: word 2w the piecewise hashes of
	// slots 4w..4w+3, lowest lane first, and word 2w+1 their half
	// hashes. A half hash is stepped whether or not it has diverged,
	// and read only once it has.
	lanes [2 * laneWords]uint64
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

// Reset returns the Hasher to its initial state, declared length
// included.
func (h *Hasher) Reset() {
	for i := range h.ctx[:h.bhend] {
		h.ctx[i] = blockCtx{}
	}
	h.roll = rollState{}
	h.n = 0
	h.total = 0
	h.bhstart = 0
	h.bhend = 1
	h.bhcap = maxContexts
	h.lanes = [2 * laneWords]uint64{laneInit}
}

// SetTotalLength declares that exactly n bytes will be written, which
// lets the Hasher track fewer block sizes per byte. Call it before the
// first Write. If the bytes written then differ from n, Sum returns an
// error instead of a digest. n <= 0 means the length is unknown.
func (h *Hasher) SetTotalLength(n int64) {
	if n <= 0 {
		h.total = 0
		h.bhcap = maxContexts
		return
	}
	h.total = uint64(n)
	// Sum reads the guessed context and the one above it, never higher.
	h.bhcap = min(blockGuess(h.total)+2, maxContexts)
}

// blockGuess is the reference algorithm's initial block-size index for
// an n-byte input: the smallest block size whose expected signature
// length fits SpamsumLength.
func blockGuess(n uint64) int {
	bi := 0
	for bi < maxContexts-1 && uint64(uint32(MinBlockSize)<<bi)*SpamsumLength < n {
		bi++
	}
	return bi
}

// Write absorbs p into the digest state. It never fails; the error is
// the io.Writer contract.
//
// fhc:hotpath
func (h *Hasher) Write(p []byte) (int, error) {
	// The rolling hash counts bytes in a uint32, as the reference does,
	// and its window ring slips where the count wraps. Split a Write
	// there, so that within one Write the byte leaving the window is
	// always the one seven back.
	if rest := 1<<32 - uint64(h.roll.n); uint64(len(p)) > rest {
		h.Write(p[:rest])
		h.Write(p[rest:])
		return len(p), nil
	}
	n0 := h.n
	// The first seven bytes of p push out the saved window: step them
	// behind it in a stitched head, then step the rest of p in place.
	var head [2 * rollingWindow]byte
	for j := range rollingWindow {
		head[j] = h.roll.window[(h.roll.n+uint32(j))%rollingWindow]
	}
	k := copy(head[rollingWindow:], p)
	h.absorb(head[:rollingWindow+k], n0)
	if len(p) > rollingWindow {
		h.absorb(p, n0+rollingWindow)
	}
	// Save the last bytes where the ring keeps them: count m in slot m%7.
	k = max(len(p)-rollingWindow, 0)
	for j, c := range p[k:] {
		h.roll.window[(h.roll.n+uint32(k+j))%rollingWindow] = c
	}
	h.roll.n += uint32(len(p))
	h.n = n0 + uint64(len(p))
	h.retire()
	return len(p), nil
}

// absorb steps the digest state over src[7:], n bytes into the input,
// the byte leaving the window being the one seven back in src, and runs
// the cascade at each trigger.
//
// fhc:hotpath
func (h *Hasher) absorb(src []byte, n uint64) {
	end := len(src) - rollingWindow
	for i := 0; ; i++ {
		if i = h.step(src, i); i == end {
			return
		}
		h.trigger(h.roll.h1+h.roll.h2+h.roll.h3, n+uint64(i)+1)
	}
}

// step is the byte loop. It steps the rolling hash and the lanes over
// in[i:], in being src[7:] and the byte leaving the window the one
// seven back in src, and stops after the first byte whose rolling hash
// triggers at the smallest active block size. It returns that byte's
// index in in, or len(in). It calls nothing, so its state stays in
// registers across the loop.
//
// fhc:hotpath
func (h *Hasher) step(src []byte, i int) int {
	h1, h2, h3 := h.roll.h1, h.roll.h2, h.roll.h3
	// A trigger at the smallest active block size 3·2^bhstart needs
	// rh ≡ -1 modulo both 2^bhstart and 3: the mask screens the first
	// without a division, and only its survivors reach the second.
	mask := uint32(1)<<h.bhstart - 1
	// Slots 0-3 step in registers, any higher ones in place.
	pw, hw, upper := h.lanes[0], h.lanes[1], h.upperLanes()
	in := src[rollingWindow:]
	outs := src[:len(in)]
	for ; i < len(in); i++ {
		c := in[i]
		h2 += rollingWindow*uint32(c) - h1
		h1 += uint32(c) - uint32(outs[i])
		h3 = h3<<5 ^ uint32(c)
		cl := uint64(c) * laneOnes
		pw = stepLanes(pw, cl)
		hw = stepLanes(hw, cl)
		for k := range upper {
			upper[k] = stepLanes(upper[k], cl)
		}
		if rh := h1 + h2 + h3; rh&mask == mask && rh%3 == 2 {
			break
		}
	}
	h.lanes[0], h.lanes[1] = pw, hw
	h.roll.h1, h.roll.h2, h.roll.h3 = h1, h2, h3
	return i
}

// upperLanes returns the lane words of the active slots above 3.
func (h *Hasher) upperLanes() []uint64 {
	return h.lanes[2 : (h.bhend-h.bhstart+3)/4*2]
}

// lane returns the piecewise hash (half 0) or the half hash (half 1)
// of active context i, modulo 64.
func (h *Hasher) lane(i, half int) byte {
	j := i - h.bhstart
	return byte(h.lanes[j/4*2+half] >> (j % 4 * 16) & 63)
}

// setLane sets the piecewise hash (half 0) or the half hash (half 1)
// of active context i to v < 64.
func (h *Hasher) setLane(i, half int, v byte) {
	j := i - h.bhstart
	w, s := &h.lanes[j/4*2+half], uint(j%4*16)
	*w = *w&^(0xffff<<s) | uint64(v)<<s
}

// trigger runs the cascade for a rolling hash rh that triggers at the
// smallest active block size, n bytes into the input, then retires the
// block sizes that can no longer be selected.
//
// fhc:hotpath
func (h *Hasher) trigger(rh uint32, n uint64) {
	// Smallest active block size first: a trigger at 2b implies one at
	// b, so the first non-trigger ends the cascade.
	bs := uint32(MinBlockSize) << h.bhstart
	for i := h.bhstart; i < h.bhend; i++ {
		if rh%bs != bs-1 {
			break
		}
		ctx := &h.ctx[i]
		if i == h.bhend-1 && h.bhend < h.bhcap {
			// First trigger of the top context: fork the next block
			// size. It has never triggered (its triggers are a subset
			// of this one's), so its piecewise hash is the pre-reset
			// hash of the whole prefix — exactly this context's right
			// now. The loop then visits the fork with the same rolling
			// hash, cascading further if it triggers.
			h.ctx[h.bhend] = blockCtx{}
			h.setLane(h.bhend, 0, h.lane(i, 0))
			h.bhend++
		}
		if !ctx.diverged && ctx.flen >= SpamsumLength/2-1 {
			// The half signature capped at the previous trigger; from
			// here its residue hash never resets again.
			ctx.diverged = true
			h.setLane(i, 1, h.lane(i, 0))
		}
		if ctx.flen < SpamsumLength-1 {
			ctx.full[ctx.flen] = b64[h.lane(i, 0)]
			ctx.flen++
			h.setLane(i, 0, laneInit)
		}
		bs *= 2
	}
	h.n = n
	h.retire()
}

// retire advances bhstart past block sizes the halving retry can no
// longer select: once the input outgrows 3·2^k·SpamsumLength bytes the
// guess sits above k, and once context k+1 holds SpamsumLength/2
// characters the halving loop stops at or above k+1 — both are
// monotone, so context k is dead. A declared length stands in for the
// bytes written so far: Sum fails unless the two end up equal.
// (Reading ctx[bhstart+1] of a context never forked sees flen 0 and
// keeps the window.) Each retirement moves every lane down one slot.
func (h *Hasher) retire() {
	n := h.n
	if h.total > 0 {
		n = h.total
	}
	for h.bhstart < maxContexts-2 &&
		uint64(uint32(MinBlockSize)<<h.bhstart)*SpamsumLength < n &&
		h.ctx[h.bhstart+1].flen >= SpamsumLength/2 {
		h.bhstart++
		for w := range h.lanes {
			var next uint64
			if w+2 < len(h.lanes) {
				next = h.lanes[w+2]
			}
			h.lanes[w] = h.lanes[w]>>16 | next<<48
		}
	}
}

// Sum returns the digest of everything written so far, however it was
// chunked. It does not modify state: callers may keep writing, and a
// second Sum returns the same digest. After SetTotalLength, Sum fails
// unless exactly the declared number of bytes was written.
func (h *Hasher) Sum() (Digest, error) {
	if h.total > 0 && h.n != h.total {
		return Digest{}, fmt.Errorf("ssdeep: %d bytes written, %d declared", h.n, h.total)
	}
	if h.n == 0 {
		return Digest{}, ErrEmptyInput
	}
	bi := blockGuess(h.n)
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
		s1[n1] = b64[h.lane(bi, 0)]
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
		if residue {
			half := 0
			if c2.diverged {
				half = 1
			}
			s2[n2] = b64[h.lane(bi+1, half)]
			n2++
		}
	} else if residue {
		// The double block size never saw a trigger (it was never even
		// forked), so its piecewise hash is the never-reset hash of the
		// whole input — which the top context still holds.
		s2[0] = b64[h.lane(h.bhend-1, 0)]
		n2 = 1
	}
	return Digest{
		BlockSize: uint32(MinBlockSize) << bi,
		Sig1:      string(s1[:n1]),
		Sig2:      string(s2[:n2]),
	}, nil
}
