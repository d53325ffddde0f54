package extract

import "io"

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
// Memory use is O(minLen), not O(input): at most minLen-1 bytes of an
// unconfirmed run are held back across chunk boundaries; once a run is
// confirmed its bytes stream straight through. A fully printable input
// therefore flows through without any buffering at all.
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
}

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
	minLen := s.minLen
	// start is where the confirmed run's bytes in p begin.
	start, i := 0, 0
	for i < len(p) {
		if !s.confirmed {
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
				return len(p), s.err
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
	return len(p), s.err
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

func (s *StringStreamer) emit(b []byte) {
	if s.err != nil || len(b) == 0 {
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
	return s.err
}

// Emitted returns the number of bytes forwarded to the underlying
// writer so far — after Close, the exact length of the StringsText
// stream. Zero means the input had no qualifying runs, which callers
// use to skip hashing an empty feature channel.
func (s *StringStreamer) Emitted() int64 { return s.emitted }
