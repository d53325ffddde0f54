package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// corpusSeed fixes the corpus and the artifact. They are built once per
// build of fhc and reused by every run, whatever its seed: training at
// paper scale takes longer than a measured phase. The run seed chooses
// everything the fleet is sent.
const corpusSeed = "1"

// buildFHC builds fhc from the tree at root into work and returns the
// binary's path. An up-to-date binary is not rebuilt.
func buildFHC(root, work string) (string, error) {
	bin := filepath.Join(work, "fhc")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/fhc")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build fhc in %s: %w\n%s", root, err, out)
	}
	return bin, nil
}

// artifacts is the prepared corpus and the two byte-identical copies of
// the calibrated artifact trained on it (rollouts alternate between
// them).
type artifacts struct {
	tree      string
	model     string
	modelAlt  string
	trainSecs float64
}

type artifactsMeta struct {
	TrainSecs float64 `json:"train_s"`
}

// prepare returns the corpus and artifact for fhc at scale, generating
// and training them with fhc itself on first use. They are keyed by the
// binary's SHA-256, so a changed fhc never serves an artifact an older
// build trained; preparing a new set drops the older ones of that scale.
func prepare(fhc, work, scale string) (*artifacts, error) {
	raw, err := os.ReadFile(fhc)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	root := filepath.Join(work, "data")
	dir := filepath.Join(root, scale+"-"+hex.EncodeToString(sum[:6]))
	a := &artifacts{
		tree:     filepath.Join(dir, "tree"),
		model:    filepath.Join(dir, "model.json"),
		modelAlt: filepath.Join(dir, "model-b.json"),
	}
	if meta, err := os.ReadFile(filepath.Join(dir, "meta.json")); err == nil {
		var m artifactsMeta
		if err := json.Unmarshal(meta, &m); err != nil {
			return nil, fmt.Errorf("%s/meta.json: %w", dir, err)
		}
		a.trainSecs = m.TrainSecs
		return a, nil
	}

	stale, err := filepath.Glob(filepath.Join(root, scale+"-*"))
	if err != nil {
		return nil, err
	}
	for _, d := range stale {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	tmp := dir + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	run := func(args ...string) error {
		out, err := exec.Command(fhc, args...).CombinedOutput()
		if err != nil {
			return fmt.Errorf("fhc %s: %w\n%s", args[0], err, out)
		}
		return nil
	}
	if err := run("corpus", "-out", filepath.Join(tmp, "tree"), "-scale", scale, "-seed", corpusSeed); err != nil {
		return nil, err
	}
	start := time.Now()
	model := filepath.Join(tmp, "model.json")
	if err := run("train", "-corpus", filepath.Join(tmp, "tree"), "-model", model,
		"-threshold", "0.3", "-calibrate", "0.2", "-seed", corpusSeed); err != nil {
		return nil, err
	}
	a.trainSecs = time.Since(start).Seconds()
	art, err := os.ReadFile(model)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "model-b.json"), art, 0o644); err != nil {
		return nil, err
	}
	meta, err := json.Marshal(artifactsMeta{TrainSecs: a.trainSecs})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "meta.json"), meta, 0o644); err != nil {
		return nil, err
	}
	return a, os.Rename(tmp, dir)
}

// maxBases is how many distinct corpus binaries a run loads: the largest
// working set (prolog-mix's 512), which the never-seen bodies draw their
// bases from too.
const maxBases = 512

// loadBases reads up to maxBases distinct corpus binaries, in an order
// shuffled by seed; working sets are prefixes of it.
func loadBases(tree string, seed uint64) (bins [][]byte, names []string, err error) {
	var paths []string
	err = filepath.WalkDir(tree, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	r := rand.New(rand.NewPCG(seed, streamBases))
	r.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	seen := map[[sha256.Size]byte]bool{}
	for _, p := range paths {
		if len(bins) == maxBases {
			break
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		if sum := sha256.Sum256(b); !seen[sum] {
			seen[sum] = true
			bins = append(bins, b)
			names = append(names, filepath.Base(p))
		}
	}
	if len(bins) == 0 {
		return nil, nil, fmt.Errorf("no corpus binaries under %s", tree)
	}
	return bins, names, nil
}
