package extract

import (
	"bytes"
	"debug/elf"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/elfgen"
	"repro/internal/rng"
)

func sampleBinary(t *testing.T, stripped bool, needed []string) []byte {
	t.Helper()
	code := make([]byte, 2048)
	rng.New(42).Bytes(code)
	spec := &elfgen.Spec{
		Text:   code,
		ROData: []byte("Usage: velvetg directory\x00error: kmer too long\x00"),
		Data:   make([]byte, 64),
		Symbols: []elfgen.Symbol{
			{Name: "main", Global: true, Type: elfgen.Func, Section: elfgen.Text, Value: 0, Size: 32},
			{Name: "assemble_graph", Global: true, Type: elfgen.Func, Section: elfgen.Text, Value: 32, Size: 128},
			{Name: "hash_sequences", Global: true, Type: elfgen.Func, Section: elfgen.Text, Value: 160, Size: 64},
			{Name: "static_helper", Global: false, Type: elfgen.Func, Section: elfgen.Text, Value: 224, Size: 16},
			{Name: "g_params", Global: true, Type: elfgen.Object, Section: elfgen.Data, Value: 0, Size: 32},
			{Name: "banner", Global: true, Type: elfgen.Object, Section: elfgen.ROData, Value: 0, Size: 8},
		},
		Needed:   needed,
		Comment:  "GCC: (GNU) 10.3.0",
		Stripped: stripped,
	}
	out, err := elfgen.Build(spec)
	if err != nil {
		t.Fatalf("building sample binary: %v", err)
	}
	return out
}

// splitRuns splits a StringsText stream back into its runs.
func splitRuns(text []byte) []string {
	if len(text) == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(text), "\n"), "\n")
}

func TestStringsBasic(t *testing.T) {
	data := []byte("ab\x00hello\x01wo\x02rld!----\xffok")
	if got := string(StringsText(data, 4)); got != "hello\nrld!----\n" {
		t.Fatalf("StringsText = %q", got)
	}
}

func TestStringsMinLen(t *testing.T) {
	data := []byte("abc\x00abcd\x00abcde")
	if got := string(StringsText(data, 5)); got != "abcde\n" {
		t.Fatalf("StringsText minLen=5 = %q", got)
	}
	if got := string(StringsText(data, 0)); got != "abcd\nabcde\n" {
		t.Fatalf("StringsText default minLen = %q, want 2 runs", got)
	}
}

func TestStringsTrailingRun(t *testing.T) {
	if got := string(StringsText([]byte("\x00\x01tail"), 4)); got != "tail\n" {
		t.Fatalf("trailing run not captured: %q", got)
	}
}

func TestStringsEmptyAndBinary(t *testing.T) {
	if got := StringsText(nil, 4); len(got) != 0 {
		t.Fatalf("StringsText(nil) = %q", got)
	}
	bin := make([]byte, 256)
	for i := range bin {
		bin[i] = byte(i % 32) // control characters only, except space
	}
	for _, s := range splitRuns(StringsText(bin, 4)) {
		if strings.Trim(s, " \t") != "" {
			t.Fatalf("found non-blank string %q in control bytes", s)
		}
	}
}

func TestStringsTabAllowed(t *testing.T) {
	if got := string(StringsText([]byte("\x00a\tb c\x00"), 4)); got != "a\tb c\n" {
		t.Fatalf("tab run = %q", got)
	}
}

func TestStringsTextFormat(t *testing.T) {
	text := StringsText([]byte("one\x00two23\x00"), 3)
	if string(text) != "one\ntwo23\n" {
		t.Fatalf("StringsText = %q", text)
	}
}

// Property: the text is newline-terminated runs, and every run is
// printable, at least minLen long, and actually present in the input.
func TestStringsProperty(t *testing.T) {
	f := func(data []byte) bool {
		text := StringsText(data, 4)
		if len(text) > 0 && text[len(text)-1] != '\n' {
			return false
		}
		for _, s := range splitRuns(text) {
			if len(s) < 4 || !bytes.Contains(data, []byte(s)) {
				return false
			}
			for i := 0; i < len(s); i++ {
				if !printable(s[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGlobalSymbols(t *testing.T) {
	bin := sampleBinary(t, false, nil)
	syms, err := GlobalSymbols(bin)
	if err != nil {
		t.Fatalf("GlobalSymbols: %v", err)
	}
	got := map[string]byte{}
	for _, s := range syms {
		got[s.Name] = s.Code
	}
	if _, ok := got["static_helper"]; ok {
		t.Error("local symbol static_helper reported as global")
	}
	for name, code := range map[string]byte{
		"main":           'T',
		"assemble_graph": 'T',
		"hash_sequences": 'T',
		"g_params":       'D',
		"banner":         'R',
	} {
		if got[name] != code {
			t.Errorf("symbol %s: code %c, want %c", name, got[name], code)
		}
	}
	// Must be name-sorted.
	for i := 1; i < len(syms); i++ {
		if syms[i-1].Name > syms[i].Name {
			t.Fatalf("symbols not sorted: %q before %q", syms[i-1].Name, syms[i].Name)
		}
	}
}

func TestSymbolsTextFormat(t *testing.T) {
	bin := sampleBinary(t, false, nil)
	text, err := SymbolsText(bin)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(text), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("SymbolsText has %d lines, want 5:\n%s", len(lines), text)
	}
	if lines[0] != "T assemble_graph" {
		t.Errorf("first line = %q, want %q", lines[0], "T assemble_graph")
	}
}

func TestStrippedBinarySymbols(t *testing.T) {
	bin := sampleBinary(t, true, nil)
	if _, err := GlobalSymbols(bin); !errors.Is(err, ErrNoSymbolTable) {
		t.Fatalf("GlobalSymbols on stripped binary: err = %v, want ErrNoSymbolTable", err)
	}
	if _, err := GlobalSymbols(sampleBinary(t, false, nil)); err != nil {
		t.Fatalf("GlobalSymbols on full binary: %v", err)
	}
}

func TestNeededLibraries(t *testing.T) {
	libs := []string{"libz.so.1", "libc.so.6"}
	bin := sampleBinary(t, false, libs)
	got, err := NeededLibraries(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "libz.so.1" || got[1] != "libc.so.6" {
		t.Fatalf("NeededLibraries = %v, want %v", got, libs)
	}
	text, err := NeededText(bin)
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != "libc.so.6\nlibz.so.1\n" {
		t.Fatalf("NeededText = %q (want sorted)", text)
	}
}

func TestNeededLibrariesStatic(t *testing.T) {
	bin := sampleBinary(t, false, nil)
	got, err := NeededLibraries(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("static binary has needed libs %v", got)
	}
}

func TestStringsFindsRODataAndSymbolNames(t *testing.T) {
	bin := sampleBinary(t, false, nil)
	text := string(StringsText(bin, 0))
	// strings(1) over the full file sees both embedded text and the
	// symbol string table, just like on a real binary.
	for _, want := range []string{"Usage: velvetg directory", "assemble_graph", "GCC: (GNU) 10.3.0"} {
		if !strings.Contains(text, want) {
			t.Errorf("strings output missing %q", want)
		}
	}
}

// TestEmptySymbolTableIsAnError feeds the extractors a binary whose
// .symtab section header claims zero bytes, which makes debug/elf panic
// in Go 1.24: the extractors must return an error instead.
func TestEmptySymbolTableIsAnError(t *testing.T) {
	bin := sampleBinary(t, false, nil)
	f, err := elf.NewFile(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, sec := range f.Sections {
		if sec.Name == ".symtab" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("sample binary has no .symtab")
	}
	// Elf64_Ehdr.e_shoff at 0x28, e_shentsize at 0x3a; sh_size sits
	// 0x20 bytes into the section header.
	shoff := binary.LittleEndian.Uint64(bin[0x28:])
	shentsize := uint64(binary.LittleEndian.Uint16(bin[0x3a:]))
	binary.LittleEndian.PutUint64(bin[shoff+uint64(idx)*shentsize+0x20:], 0)
	if _, err := GlobalSymbols(bin); err == nil {
		t.Fatal("GlobalSymbols accepted an empty symbol table")
	}
	if _, err := SymbolsText(bin); err == nil {
		t.Fatal("SymbolsText accepted an empty symbol table")
	}
}

func TestNotAnELF(t *testing.T) {
	junk := []byte("#!/bin/sh\necho hello\n")
	if IsELF(junk) {
		t.Error("shell script detected as ELF")
	}
	if _, err := GlobalSymbols(junk); err == nil {
		t.Error("GlobalSymbols succeeded on a shell script")
	}
	if _, err := NeededLibraries(junk); err == nil {
		t.Error("NeededLibraries succeeded on a shell script")
	}
	bin := sampleBinary(t, false, nil)
	if !IsELF(bin) {
		t.Error("generated binary not detected as ELF")
	}
}

func BenchmarkStrings64KB(b *testing.B) {
	data := make([]byte, 64*1024)
	rng.New(7).Bytes(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StringsText(data, 4)
	}
}

// BenchmarkStringStreamer64KChunks scans 1 MiB of random bytes in the
// 64 KiB writes dataset.FromReader makes, into a writer that discards.
func BenchmarkStringStreamer64KChunks(b *testing.B) {
	data := make([]byte, 1<<20)
	rng.New(7).Bytes(data)
	s := NewStringStreamer(discardWriter{}, 0)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Reset(discardWriter{}, 0)
		for off := 0; off < len(data); off += 64 << 10 {
			s.Write(data[off : off+64<<10])
		}
		s.Close()
	}
}

func BenchmarkSymbolsText(b *testing.B) {
	code := make([]byte, 2048)
	rng.New(42).Bytes(code)
	spec := &elfgen.Spec{
		Text: code,
		Symbols: []elfgen.Symbol{
			{Name: "main", Global: true, Type: elfgen.Func, Section: elfgen.Text},
		},
	}
	bin, err := elfgen.Build(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SymbolsText(bin); err != nil {
			b.Fatal(err)
		}
	}
}
