// Package extract pulls the paper's features out of executable files:
//
//   - the raw binary content (hashed as-is),
//   - the continuous printable character runs, as the strings(1) command
//     would report them,
//   - the defined global symbols from the symbol table, as nm(1) would
//     report them,
//   - the DT_NEEDED shared objects, as ldd(1) would resolve them (the
//     paper's stated future-work feature).
//
// Each extractor also has a *Text variant producing the canonical byte
// stream that gets fuzzy-hashed, so the digest of a feature is defined in
// exactly one place.
//
// Concurrency contract: every extractor is a pure function of its input
// bytes — no package state — and safe to call concurrently; batch
// extraction layers (dataset, collector) rely on that.
package extract

import (
	"bytes"
	"debug/elf"
	"errors"
	"fmt"
	"sort"
)

// MinStringLength is the default minimum printable-run length, matching
// the strings(1) default of 4.
const MinStringLength = 4

// ErrNoSymbolTable is returned when symbol extraction meets a binary whose
// symbol table is missing, i.e. a stripped executable. The paper lists
// this as the approach's main limitation.
var ErrNoSymbolTable = errors.New("extract: no symbol table (stripped binary)")

// printable reports whether b is a printable ASCII character or tab, the
// same set strings(1) scans for by default.
func printable(b byte) bool {
	return b == '\t' || (b >= 0x20 && b < 0x7f)
}

// StringsText renders the strings(1) view of data: every run of at
// least minLen consecutive printable characters, in file order, one per
// line. This is the exact byte stream the ssdeep-strings feature hashes.
// A minLen of 0 selects MinStringLength. It is one whole-buffer run of a
// StringStreamer.
func StringsText(data []byte, minLen int) []byte {
	var buf bytes.Buffer
	s := NewStringStreamer(&buf, minLen)
	s.Write(data)
	s.Close()
	return buf.Bytes()
}

// GlobalSymbol is one defined global symbol with its nm(1) code letter.
type GlobalSymbol struct {
	// Name is the symbol name.
	Name string
	// Code is the nm letter: 'T' text, 'D' data, 'R' read-only data.
	Code byte
}

// GlobalSymbols returns the defined global symbols of the ELF binary in
// data, sorted by name. Sorting by name (rather than nm's default address
// order) keeps the hashed view invariant under section-layout shifts,
// which is the stability property the paper attributes to function names.
func GlobalSymbols(data []byte) (_ []GlobalSymbol, err error) {
	defer recoverELF(&err)
	f, err := elf.NewFile(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("extract: parsing ELF: %w", err)
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		if errors.Is(err, elf.ErrNoSymbols) {
			return nil, ErrNoSymbolTable
		}
		return nil, fmt.Errorf("extract: reading symbols: %w", err)
	}
	out := make([]GlobalSymbol, 0, len(syms))
	for _, s := range syms {
		if elf.ST_BIND(s.Info) != elf.STB_GLOBAL {
			continue
		}
		if s.Section == elf.SHN_UNDEF || s.Name == "" {
			continue
		}
		code := byte('D')
		if sec := sectionOf(f, s.Section); sec != nil {
			switch {
			case sec.Flags&elf.SHF_EXECINSTR != 0:
				code = 'T'
			case sec.Flags&elf.SHF_WRITE == 0:
				code = 'R'
			}
		}
		out = append(out, GlobalSymbol{Name: s.Name, Code: code})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Code < out[j].Code
	})
	return out, nil
}

// recoverELF turns a panic inside debug/elf into the caller's error:
// some malformed inputs still panic there (an empty symbol table does
// in Go 1.24), and an upload must not take its worker down.
func recoverELF(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("extract: malformed ELF: %v", r)
	}
}

func sectionOf(f *elf.File, idx elf.SectionIndex) *elf.Section {
	if int(idx) < 0 || int(idx) >= len(f.Sections) {
		return nil
	}
	return f.Sections[idx]
}

// SymbolsText renders the nm(1)-style global-symbol view of the binary:
// one "CODE name" line per defined global symbol, name-sorted. This is the
// exact byte stream the ssdeep-symbols feature hashes.
func SymbolsText(data []byte) ([]byte, error) {
	syms, err := GlobalSymbols(data)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, s := range syms {
		buf.WriteByte(s.Code)
		buf.WriteByte(' ')
		buf.WriteString(s.Name)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// NeededLibraries returns the DT_NEEDED shared-object names recorded in
// the binary's dynamic section, in declaration order. Statically linked
// binaries return an empty slice and no error.
func NeededLibraries(data []byte) (_ []string, err error) {
	defer recoverELF(&err)
	f, err := elf.NewFile(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("extract: parsing ELF: %w", err)
	}
	defer f.Close()
	libs, err := f.DynString(elf.DT_NEEDED)
	if err != nil {
		// No dynamic section means no needed libraries.
		return nil, nil
	}
	return libs, nil
}

// NeededText renders the ldd-style view: one shared-object name per line,
// sorted. This is the byte stream the optional ssdeep-needed feature
// hashes.
func NeededText(data []byte) ([]byte, error) {
	libs, err := NeededLibraries(data)
	if err != nil {
		return nil, err
	}
	sorted := append([]string(nil), libs...)
	sort.Strings(sorted)
	var buf bytes.Buffer
	for _, l := range sorted {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// IsELF reports whether data begins with the ELF magic.
func IsELF(data []byte) bool {
	return len(data) >= 4 && data[0] == 0x7f && data[1] == 'E' && data[2] == 'L' && data[3] == 'F'
}
