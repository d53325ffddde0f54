package extract

import (
	"bytes"
	"testing"
)

// FuzzStrings checks the strings(1) view on arbitrary bytes: no
// panics, the text is newline-terminated runs, and every run is
// printable, at least minLen long and actually present in the input.
func FuzzStrings(f *testing.F) {
	f.Add([]byte("hello\x00world\x01binary\xffdata"), 4)
	f.Add([]byte{}, 1)
	f.Add(bytes.Repeat([]byte("ab\x00"), 100), 2)
	f.Fuzz(func(t *testing.T, data []byte, minLen int) {
		if minLen < -10 || minLen > 1000 {
			return
		}
		text := StringsText(data, minLen)
		if len(text) > 0 && text[len(text)-1] != '\n' {
			t.Fatalf("text %q does not end in a newline", text)
		}
		effective := minLen
		if effective <= 0 {
			effective = MinStringLength
		}
		for _, r := range splitRuns(text) {
			if len(r) < effective {
				t.Fatalf("run %q shorter than %d", r, effective)
			}
			if !bytes.Contains(data, []byte(r)) {
				t.Fatalf("run %q not in input", r)
			}
			for i := 0; i < len(r); i++ {
				if !printable(r[i]) {
					t.Fatalf("non-printable byte in run %q", r)
				}
			}
		}
	})
}

// FuzzELFInputs throws arbitrary bytes at the ELF-consuming extractors:
// they must return errors, never panic.
func FuzzELFInputs(f *testing.F) {
	f.Add([]byte("\x7fELF"))
	f.Add([]byte("\x7fELF\x02\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add([]byte("#!/bin/sh\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Any of these may fail; none may panic.
		_, _ = GlobalSymbols(data)
		_, _ = SymbolsText(data)
		_, _ = NeededLibraries(data)
		_, _ = NeededText(data)
		_ = IsELF(data)
	})
}
