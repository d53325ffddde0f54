package main

// Inspection subcommands: hash, compare, strings, nm, ldd — the fuzzy
// hashing and feature-extraction primitives, usable on any ELF binary.

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/extract"
	"repro/ssdeep"
)

// cmdHash prints all fuzzy digests of each file.
func cmdHash(args []string) error {
	fs := flag.NewFlagSet("hash", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("no files given")
	}
	for _, path := range fs.Args() {
		bin, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		s, err := dataset.FromBinary("", "", path, bin)
		if err != nil {
			return err
		}
		fmt.Printf("%s:\n", path)
		for kind := dataset.FeatureKind(0); kind < dataset.NumFeatureKinds; kind++ {
			d := s.Digests[kind]
			if d.IsZero() {
				fmt.Printf("  %-16s (unavailable)\n", kind)
				continue
			}
			fmt.Printf("  %-16s %s\n", kind, d)
		}
		fmt.Printf("  %-16s %x\n", "sha256", s.SHA256)
	}
	return nil
}

// cmdCompare prints the per-feature similarity of two executables.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	distName := fs.String("distance", "damerau-levenshtein",
		"scoring distance: damerau-levenshtein, levenshtein or spamsum")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("need exactly two files")
	}
	dist, err := pickDistance(*distName)
	if err != nil {
		return err
	}
	load := func(path string) (dataset.Sample, error) {
		bin, err := os.ReadFile(path)
		if err != nil {
			return dataset.Sample{}, err
		}
		return dataset.FromBinary("", "", path, bin)
	}
	a, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %s vs %s\n", "feature", fs.Arg(0), fs.Arg(1))
	for kind := dataset.FeatureKind(0); kind < dataset.NumFeatureKinds; kind++ {
		da, db := a.Digests[kind], b.Digests[kind]
		if da.IsZero() || db.IsZero() {
			fmt.Printf("%-16s (unavailable)\n", kind)
			continue
		}
		fmt.Printf("%-16s %d\n", kind, ssdeep.CompareDistance(da, db, dist))
	}
	if a.SHA256 == b.SHA256 {
		fmt.Printf("%-16s identical\n", "sha256")
	} else {
		fmt.Printf("%-16s different\n", "sha256")
	}
	return nil
}

func pickDistance(name string) (ssdeep.DistanceFunc, error) {
	if name == "dl" {
		name = string(core.DistanceDL)
	}
	return core.DistanceName(name).Func()
}

// cmdStrings prints the printable-run view.
func cmdStrings(args []string) error {
	return printView(args, "strings", func(bin []byte) ([]byte, error) {
		return extract.StringsText(bin, 0), nil
	})
}

// cmdNM prints the global-symbol view.
func cmdNM(args []string) error {
	return printView(args, "nm", extract.SymbolsText)
}

// cmdLDD prints the needed-library view.
func cmdLDD(args []string) error {
	return printView(args, "ldd", extract.NeededText)
}

func printView(args []string, name string, view func([]byte) ([]byte, error)) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("need exactly one file")
	}
	bin, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	text, err := view(bin)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(text)
	return err
}
