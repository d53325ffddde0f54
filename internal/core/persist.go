package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/openset"
	"repro/ssdeep"
)

// parseDigest parses and validates a stored digest string.
func parseDigest(s string) (ssdeep.Digest, error) {
	d, err := ssdeep.Parse(s)
	if err != nil {
		return ssdeep.Digest{}, fmt.Errorf("core: model digest %q: %w", s, err)
	}
	return d, nil
}

// Persisted format versions. Version 2 stores a self-describing
// {model_kind, model} payload resolved through the model registry;
// version 1 stored the bare Random Forest and remains loadable.
const (
	modelVersionV1 = 1
	modelVersion   = 2
)

// kindProfilesDTO is the serialised profile set of one feature kind.
type kindProfilesDTO struct {
	// Kind is the dataset.FeatureKind value.
	Kind int `json:"kind"`
	// PerClass holds the digest strings per class, in class order.
	PerClass [][]string `json:"per_class"`
}

// modelDTO is the on-disk representation of a trained classifier.
type modelDTO struct {
	Version   int               `json:"version"`
	Features  []int             `json:"features"`
	Classes   []string          `json:"classes"`
	Distance  string            `json:"distance"`
	Threshold float64           `json:"threshold"`
	Profiles  []kindProfilesDTO `json:"profiles"`
	// ModelKind and Model are the version-2 payload: the registered
	// model kind and its opaque, kind-owned parameter encoding.
	ModelKind string          `json:"model_kind,omitempty"`
	Model     json.RawMessage `json:"model,omitempty"`
	// Forest is the version-1 payload (implicitly kind "rf").
	Forest json.RawMessage  `json:"forest,omitempty"`
	Tuning []ThresholdScore `json:"tuning,omitempty"`
	// Calibration is the optional open-set calibration blob
	// (openset.Encode), persisted with the model so hot-swap and staged
	// rollout install model and abstention thresholds atomically.
	// Artifacts without it load closed-set, unchanged.
	Calibration json.RawMessage `json:"calibration,omitempty"`
}

// Save serialises the classifier as JSON. The model is self-contained:
// class profiles (digests only — no raw file content, preserving the
// paper's privacy argument), the fitted model tagged with its registry
// kind, the threshold and the tuning curve.
func (c *Classifier) Save(w io.Writer) error {
	payload, err := json.Marshal(c.mdl)
	if err != nil {
		return fmt.Errorf("core: saving %s model: %w", c.mdl.Kind(), err)
	}
	dto := modelDTO{
		Version:   modelVersion,
		Classes:   c.profiles.classes,
		Distance:  string(c.cfg.Distance),
		Threshold: c.Threshold(),
		ModelKind: c.mdl.Kind(),
		Model:     payload,
		Tuning:    c.tuning,
	}
	if dto.Distance == "" {
		dto.Distance = string(DistanceDL)
	}
	if cal := c.calibration.Load(); cal != nil {
		blob, err := cal.Encode()
		if err != nil {
			return fmt.Errorf("core: saving model: %w", err)
		}
		dto.Calibration = blob
	}
	for _, kind := range c.profiles.features {
		dto.Features = append(dto.Features, int(kind))
		kp := kindProfilesDTO{Kind: int(kind)}
		for _, p := range c.profiles.profiles[kind] {
			kp.PerClass = append(kp.PerClass, p.digests)
		}
		dto.Profiles = append(dto.Profiles, kp)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&dto); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// SaveFile writes a classifier artifact atomically: the JSON is written
// to a temporary file in the destination directory and renamed into
// place, so a crash mid-write can never leave a truncated artifact where
// LoadFile (or a model-swap endpoint) would find it. It is the
// artifact-write path the continuous-learning layer uses to persist
// promoted models.
func SaveFile(path string, c *Classifier) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := c.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// LoadFile reads a classifier artifact from disk. It is the
// swap-from-artifact path shared by the CLI, the public facade and the
// HTTP model-swap endpoint: one place resolves a file name into a
// registry-checked classifier of any persisted version.
func LoadFile(path string) (*Classifier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// rawIsNull reports whether a raw JSON payload is absent.
func rawIsNull(raw json.RawMessage) bool {
	return len(raw) == 0 || string(raw) == "null"
}

// Load reads a classifier saved with Save: the current version-2 format
// with any registered model kind, or a legacy version-1 artifact whose
// payload is the bare forest.
func Load(r io.Reader) (*Classifier, error) {
	var dto modelDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	var mdl model.Model
	var err error
	switch dto.Version {
	case modelVersionV1:
		if rawIsNull(dto.Forest) {
			return nil, fmt.Errorf("core: version 1 model has no forest")
		}
		mdl, err = model.Unmarshal(model.KindRF, dto.Forest)
	case modelVersion:
		if dto.ModelKind == "" || rawIsNull(dto.Model) {
			return nil, fmt.Errorf("core: version 2 model has no model payload")
		}
		mdl, err = model.Unmarshal(dto.ModelKind, dto.Model)
	default:
		return nil, fmt.Errorf("core: unsupported model version %d", dto.Version)
	}
	if err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	distName := DistanceName(dto.Distance)
	if fast, ok := retiredDistances[distName]; ok {
		distName = fast
	}
	dist, err := distName.Func()
	if err != nil {
		return nil, err
	}
	features := make([]dataset.FeatureKind, len(dto.Features))
	for i, k := range dto.Features {
		if k < 0 || k >= int(dataset.NumFeatureKinds) {
			return nil, fmt.Errorf("core: invalid feature kind %d", k)
		}
		features[i] = dataset.FeatureKind(k)
	}
	c := &Classifier{
		cfg:      Config{Features: features, Distance: distName, Model: mdl.Kind()}.withDefaults(),
		mdl:      mdl,
		distance: dist,
		tuning:   dto.Tuning,
	}
	c.SetThreshold(dto.Threshold)
	// Rebuild prepared profiles from the digest strings.
	ps := &profileSet{
		features: features,
		classes:  dto.Classes,
		profiles: make(map[dataset.FeatureKind][]classProfile, len(features)),
	}
	for _, kp := range dto.Profiles {
		kind := dataset.FeatureKind(kp.Kind)
		if len(kp.PerClass) != len(dto.Classes) {
			return nil, fmt.Errorf("core: profile shape mismatch for %v", kind)
		}
		profiles := make([]classProfile, len(kp.PerClass))
		for ci, digests := range kp.PerClass {
			p := classProfile{digests: digests}
			for _, s := range digests {
				d, err := parseDigest(s)
				if err != nil {
					return nil, err
				}
				p.parsed = append(p.parsed, d)
			}
			profiles[ci] = p
		}
		ps.profiles[kind] = profiles
	}
	c.profiles = ps
	if got, want := c.profiles.numFeatures(), mdl.NumFeatures(); got != want {
		return nil, fmt.Errorf("core: model inconsistency: %d profile features vs %d model features", got, want)
	}
	if got, want := len(dto.Classes), mdl.NumClasses(); got != want {
		return nil, fmt.Errorf("core: model inconsistency: %d classes vs %d model classes", got, want)
	}
	if !rawIsNull(dto.Calibration) {
		cal, err := openset.Decode(dto.Calibration)
		if err != nil {
			return nil, fmt.Errorf("core: loading model: %w", err)
		}
		if err := c.SetCalibration(cal); err != nil {
			return nil, fmt.Errorf("core: loading model: %w", err)
		}
	}
	return c, nil
}
