package elfgen

import (
	"bytes"
	"debug/elf"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestBuildArbitrarySpecs drives the writer with random (but valid)
// specs and requires every output to parse with debug/elf and to round
// trip its symbols.
func TestBuildArbitrarySpecs(t *testing.T) {
	f := func(seed uint64, textSel, roSel, dataSel uint8, nSyms uint8, withNeeded, stripped bool) bool {
		src := rng.New(seed)
		text := make([]byte, int(textSel)+1)
		src.Bytes(text)
		spec := &Spec{
			Text:     text,
			ROData:   make([]byte, int(roSel)),
			Data:     make([]byte, int(dataSel)),
			Stripped: stripped,
		}
		src.Bytes(spec.ROData)
		for i := 0; i < int(nSyms%24); i++ {
			sections := []Section{Text, ROData, Data}
			sec := sections[src.Intn(len(sections))]
			limit := map[Section]int{Text: len(spec.Text), ROData: len(spec.ROData), Data: len(spec.Data)}[sec]
			spec.Symbols = append(spec.Symbols, Symbol{
				Name:    fmt.Sprintf("sym_%d", i),
				Global:  src.Float64() < 0.5,
				Type:    SymbolType(src.Intn(2)),
				Section: sec,
				Value:   uint64(src.Intn(limit + 1)),
				Size:    uint64(src.Intn(64)),
			})
		}
		if withNeeded {
			spec.Needed = []string{"liba.so.1", "libb.so.2"}
		}
		out, err := Build(spec)
		if err != nil {
			return false
		}
		f, err := elf.NewFile(bytes.NewReader(out))
		if err != nil {
			return false
		}
		defer f.Close()
		syms, err := f.Symbols()
		if stripped {
			return err != nil // must have no symbol table
		}
		if err != nil {
			return false
		}
		return len(syms) == len(spec.Symbols)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSectionOffsetsDisjoint verifies the layout never overlaps section
// bodies or the header tables.
func TestSectionOffsetsDisjoint(t *testing.T) {
	out := buildOrFatal(t, testSpec())
	f, err := elf.NewFile(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type span struct {
		name     string
		from, to uint64
	}
	var spans []span
	for _, s := range f.Sections {
		if s.Type == elf.SHT_NULL || s.Size == 0 {
			continue
		}
		spans = append(spans, span{s.Name, s.Offset, s.Offset + s.Size})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.from < b.to && b.from < a.to {
				t.Fatalf("sections %s and %s overlap: [%d,%d) vs [%d,%d)",
					a.name, b.name, a.from, a.to, b.from, b.to)
			}
		}
	}
}
