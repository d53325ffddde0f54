package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/openset"
)

// Persisted format versions. Version 2 stores a self-describing
// {model_kind, model} payload decoded by model.Unmarshal;
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
	// ModelKind and Model are the version-2 payload: the model kind
	// and its opaque, kind-owned parameter encoding.
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
// paper's privacy argument), the fitted model tagged with its kind,
// the threshold and the tuning curve.
func (c *Classifier) Save(w io.Writer) error {
	payload, err := json.Marshal(c.mdl)
	if err != nil {
		return fmt.Errorf("core: saving %s model: %w", c.cfg.Model, err)
	}
	dto := modelDTO{
		Version:   modelVersion,
		Classes:   c.profiles.classes,
		Distance:  string(distanceNames[c.profiles.dist]),
		Threshold: c.Threshold(),
		ModelKind: c.cfg.Model,
		Model:     payload,
		Tuning:    c.tuning,
	}
	if cal := c.calibration.Load(); cal != nil {
		blob, err := cal.Encode()
		if err != nil {
			return fmt.Errorf("core: saving model: %w", err)
		}
		dto.Calibration = blob
	}
	for k, kind := range c.profiles.features {
		dto.Features = append(dto.Features, int(kind))
		dto.Profiles = append(dto.Profiles, kindProfilesDTO{Kind: int(kind), PerClass: c.profiles.digests[k]})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(&dto); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// SaveFile writes a classifier artifact with WriteFileAtomic, so a
// crash can never leave a truncated artifact where LoadFile (or a
// model-swap endpoint) would find it. It is the artifact-write path
// the continuous-learning layer uses to persist promoted models.
func SaveFile(path string, c *Classifier) error {
	return WriteFileAtomic(path, c.Save)
}

// WriteFileAtomic writes a file through a temporary file in the
// destination directory: write fills it, Sync makes its bytes durable,
// and only then is it renamed over path. A crash or a failing write
// therefore leaves path absent or holding its previous content, never
// empty or torn, and no temporary file is left behind. Model
// artifacts, the retraining store and its latest pointer are all
// written this way.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile reads a classifier artifact from disk. It is the
// swap-from-artifact path shared by the CLI, the public facade and the
// HTTP model-swap endpoint: one place resolves a file name into a
// validated classifier of any persisted version.
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
// with any model kind, or a legacy version-1 artifact whose
// payload is the bare forest.
func Load(r io.Reader) (*Classifier, error) {
	var dto modelDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	kind, payload := dto.ModelKind, dto.Model
	switch dto.Version {
	case modelVersionV1:
		if rawIsNull(dto.Forest) {
			return nil, fmt.Errorf("core: version 1 model has no forest")
		}
		kind, payload = model.KindRF, dto.Forest
	case modelVersion:
		if kind == "" || rawIsNull(payload) {
			return nil, fmt.Errorf("core: version 2 model has no model payload")
		}
	default:
		return nil, fmt.Errorf("core: unsupported model version %d", dto.Version)
	}
	mdl, err := model.Unmarshal(kind, payload)
	if err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	// Drop the decoded payload, so the index build below does not hold it.
	dto.Model, dto.Forest = nil, nil
	dist, err := DistanceName(dto.Distance).Resolve()
	if err != nil {
		return nil, err
	}
	features, perKind, err := profilesByFeature(&dto)
	if err != nil {
		return nil, err
	}
	if got, want := len(features)*len(dto.Classes), mdl.NumFeatures(); got != want {
		return nil, fmt.Errorf("core: model inconsistency: %d profile features vs %d model features", got, want)
	}
	if got, want := len(dto.Classes), mdl.NumClasses(); got != want {
		return nil, fmt.Errorf("core: model inconsistency: %d classes vs %d model classes", got, want)
	}
	var cal *openset.Calibration
	if !rawIsNull(dto.Calibration) {
		if cal, err = openset.Decode(dto.Calibration); err != nil {
			return nil, fmt.Errorf("core: loading model: %w", err)
		}
	}
	ps, err := newProfileSet(features, dto.Classes, dist, perKind)
	if err != nil {
		return nil, err
	}
	c := &Classifier{
		cfg:      Config{Features: features, Model: kind}.withDefaults(),
		profiles: ps,
		mdl:      mdl,
		tuning:   dto.Tuning,
	}
	c.SetThreshold(dto.Threshold)
	if err := c.SetCalibration(cal); err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	return c, nil
}

// ErrProfileShape reports an artifact whose digest profiles do not pair
// one-for-one with its feature kinds, or do not hold one digest list per
// class.
var ErrProfileShape = errors.New("core: profiles do not match the model's features and classes")

// profilesByFeature validates an artifact's feature kinds and returns
// them with their per-class digest lists. Save writes one profile per
// feature, in feature order, so anything else is rejected: a repeated
// feature kind, a missing, extra or repeated profile, a profile of
// another kind and a profile without one list per class. A misshapen
// artifact therefore fails before any index is built.
func profilesByFeature(dto *modelDTO) ([]dataset.FeatureKind, [][][]string, error) {
	if len(dto.Profiles) != len(dto.Features) {
		return nil, nil, fmt.Errorf("%w: %d profiles for %d features", ErrProfileShape, len(dto.Profiles), len(dto.Features))
	}
	features := make([]dataset.FeatureKind, len(dto.Features))
	perKind := make([][][]string, len(dto.Features))
	var seen [dataset.NumFeatureKinds]bool
	for k, kind := range dto.Features {
		kp := dto.Profiles[k]
		switch {
		case kind < 0 || kind >= int(dataset.NumFeatureKinds):
			return nil, nil, fmt.Errorf("core: invalid feature kind %d", kind)
		case seen[kind]:
			return nil, nil, fmt.Errorf("%w: feature kind %d listed twice", ErrProfileShape, kind)
		case kp.Kind != kind:
			return nil, nil, fmt.Errorf("%w: profile %d has kind %d, not its feature's %d", ErrProfileShape, k, kp.Kind, kind)
		case len(kp.PerClass) != len(dto.Classes):
			return nil, nil, fmt.Errorf("%w: %d class profiles for %d classes", ErrProfileShape, len(kp.PerClass), len(dto.Classes))
		}
		seen[kind] = true
		features[k], perKind[k] = dataset.FeatureKind(kind), kp.PerClass
	}
	return features, perKind, nil
}
