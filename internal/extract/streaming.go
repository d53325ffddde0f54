package extract

import (
	"encoding/binary"
	"io"
	"math/bits"
)

// newline is the run separator of the StringsText stream, shared so the
// hot write path never materialises a fresh slice per run.
var newline = []byte{'\n'}

// StringStreamer is the package's one strings(1) scan: bytes arrive in
// chunks of any size via Write, and every confirmed printable run — at
// least minLen consecutive printable characters — is forwarded to the
// underlying writer followed by a newline. However the input is
// chunked, the stream is byte-for-byte the one StringsText returns for
// the whole buffer.
//
// Memory use is O(blockSize + minLen), not O(input): the stream is
// copied into a fixed 4 KiB block that goes downstream when it fills
// and at the end of every Write and Close, so the writer sees a few
// large writes rather than one per run, and a piece of at least a block
// goes straight through. At most minLen-1 bytes of an unconfirmed run
// are held back across chunk boundaries.
//
// While no run is open and minLen is at most 64, the scan takes 64
// bytes at a time: one printable bitmask per block gives every run
// that starts and ends inside it. A byte loop takes the rest: runs
// carried across blocks or Writes, tails shorter than a block, and
// larger minLen.
//
// Call Close after the final Write to flush a trailing run. Write errors
// from the underlying writer are sticky and returned from every
// subsequent call. A StringStreamer is not safe for concurrent use.
type StringStreamer struct {
	w      io.Writer
	minLen int
	// run counts the printable bytes of the current run while it is
	// shorter than minLen.
	run int
	// pending holds those run bytes when the run began in an earlier
	// Write; it is dropped if the run ends early.
	pending []byte
	// confirmed marks that the current run reached minLen, so pending
	// has been flushed and further printable bytes stream through.
	confirmed bool
	emitted   int64
	err       error
	// block holds nblock bytes of the stream not yet forwarded.
	block  [blockSize]byte
	nblock int
}

// blockSize is the size of the writes a StringStreamer makes downstream
// while its text is made of pieces shorter than that.
const blockSize = 4096

// printTab is printable as a 0/1 table, so a run counter can be
// advanced without a branch per byte.
var printTab = func() (t [256]uint8) {
	for c := range t {
		if printable(byte(c)) {
			t[c] = 1
		}
	}
	return t
}()

// NewStringStreamer returns a streamer writing the StringsText stream of
// everything written to it into w. A minLen of 0 selects
// MinStringLength.
func NewStringStreamer(w io.Writer, minLen int) *StringStreamer {
	s := &StringStreamer{}
	s.Reset(w, minLen)
	return s
}

// Reset reinitialises the streamer for a new input and destination,
// retaining internal capacity so pooled reuse does not allocate.
func (s *StringStreamer) Reset(w io.Writer, minLen int) {
	if minLen <= 0 {
		minLen = MinStringLength
	}
	s.w = w
	s.minLen = minLen
	if cap(s.pending) < minLen-1 {
		s.pending = make([]byte, 0, minLen-1)
	}
	s.run = 0
	s.pending = s.pending[:0]
	s.confirmed = false
	s.emitted = 0
	s.err = nil
	s.nblock = 0
}

// Write scans p for printable runs, forwarding confirmed runs to the
// underlying writer. It always reports len(p) consumed; a sticky
// downstream error is returned once present.
//
// fhc:hotpath
func (s *StringStreamer) Write(p []byte) (int, error) {
	if s.err != nil {
		return len(p), s.err
	}
	s.scan(p)
	s.flush()
	return len(p), s.err
}

// scan emits the text of the confirmed runs in p.
//
// fhc:hotpath
func (s *StringStreamer) scan(p []byte) {
	minLen := s.minLen
	// start is where the confirmed run's bytes in p begin.
	start, i := 0, 0
	for i < len(p) {
		if !s.confirmed {
			if s.run == 0 && minLen <= 64 {
				i = s.scanBlocks(p, i)
			}
			// Count the run up to minLen: a non-printable byte zeroes
			// the counter, a printable one advances it.
			run, j := s.run, i
			for j < len(p) && run < minLen {
				run = (run + 1) * int(printTab[p[j]])
				j++
			}
			if run < minLen {
				// p ends inside a short run: hold its bytes back.
				if run > j-i {
					s.pending = append(s.pending, p[i:]...)
				} else {
					s.pending = append(s.pending[:0], p[len(p)-run:]...)
				}
				s.run = run
				return
			}
			// The run reached minLen at p[j-1]. When it began in an
			// earlier Write, no byte of p[i:j] reset it, so pending
			// holds exactly its earlier bytes.
			start = j - run
			if start < i {
				s.emit(s.pending)
				start = i
			}
			s.pending = s.pending[:0]
			s.run = 0
			s.confirmed = true
			i = j
		}
		for i < len(p) && printTab[p[i]] != 0 {
			i++
		}
		s.emit(p[start:i])
		if i == len(p) {
			break
		}
		s.endRun()
		i++
	}
}

// scanBlocks emits the runs that lie inside whole 64-byte blocks of p
// from p[i] on, where no run is open, and returns where the byte loop
// takes over: at the start of a run that reaches its block's top and is
// long enough to confirm, or at the tail of p shorter than a block. A
// shorter run at a block's top starts the next block.
//
// fhc:hotpath
func (s *StringStreamer) scanBlocks(p []byte, i int) int {
	for len(p)-i >= 64 {
		m := printMask(p[i : i+64])
		// Bit j of starts: the minLen bytes from j on are printable.
		starts := m
		for have := 1; have < s.minLen; {
			sh := min(have, s.minLen-have)
			starts &= starts >> sh
			have += sh
		}
		for starts != 0 {
			j := bits.TrailingZeros64(starts)
			e := j + bits.TrailingZeros64(^(m >> j))
			if e == 64 {
				return i + j
			}
			s.emit(p[i+j : i+e])
			s.emit(newline)
			starts &= ^uint64(0) << e
		}
		i += 64 - bits.LeadingZeros64(^m)
	}
	return i
}

// printMask returns the printable bytes of b[:64] as a bit mask, b[j]
// in bit j, eight bytes to a word: a byte's top bit in
// (y+0x60) &^ (y+0x01) &^ x, y being the byte without its top bit,
// marks 0x20 <= x <= 0x7e, and the zero test of x^0x09 marks a tab.
func printMask(b []byte) uint64 {
	const (
		ones = 0x0101010101010101
		low7 = 0x7f * ones
		top  = 0x80 * ones
	)
	var m uint64
	for w := range 8 {
		x := binary.LittleEndian.Uint64(b[8*w:])
		y := x & low7
		in := (y + 0x60*ones) &^ (y + ones) &^ x
		t := x ^ 0x09*ones
		tab := ^((t&low7 + low7) | t)
		// Gather the eight top bits into the word's byte of m.
		m |= ((in | tab) & top) * 0x0002040810204081 >> 56 << (8 * w)
	}
	return m
}

// endRun terminates the current run: a confirmed run gets its newline,
// an unconfirmed one is dropped, as strings(1) skips short runs.
func (s *StringStreamer) endRun() {
	if s.confirmed {
		s.emit(newline)
		s.confirmed = false
	}
	s.run = 0
	s.pending = s.pending[:0]
}

// emit appends b to the stream: into the block when it fits, else
// after flushing the block, and straight downstream when b is at least
// a block long.
func (s *StringStreamer) emit(b []byte) {
	if len(b) > blockSize-s.nblock {
		s.flush()
		if len(b) >= blockSize {
			s.forward(b)
			return
		}
	}
	s.nblock += copy(s.block[s.nblock:], b)
}

// flush forwards the block.
func (s *StringStreamer) flush() {
	if s.nblock > 0 {
		s.forward(s.block[:s.nblock])
		s.nblock = 0
	}
}

// forward writes b downstream, counting it in Emitted and keeping the
// first error.
func (s *StringStreamer) forward(b []byte) {
	if s.err != nil {
		return
	}
	n, err := s.w.Write(b)
	s.emitted += int64(n)
	if err != nil {
		s.err = err
	}
}

// Close flushes a trailing confirmed run. The streamer stays inspectable
// (Emitted) afterwards; Reset readies it for the next input.
func (s *StringStreamer) Close() error {
	s.endRun()
	s.flush()
	return s.err
}

// Emitted returns the number of bytes forwarded to the underlying
// writer so far — after Close, the exact length of the StringsText
// stream. Zero means the input had no qualifying runs, which callers
// use to skip hashing an empty feature channel.
func (s *StringStreamer) Emitted() int64 { return s.emitted }
