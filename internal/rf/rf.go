// Package rf implements a Random Forest classifier from scratch: CART
// decision trees with Gini or entropy impurity, bootstrap sampling,
// per-node feature sub-sampling, balanced class weights, probability
// prediction and mean-decrease-in-impurity feature importances — the
// capabilities the paper uses from scikit-learn's RandomForestClassifier,
// including the two properties it selects the model for (non-linearity
// and feature-importance scores).
//
// Concurrency contract: a fitted Forest is immutable — PredictProba and
// the exported fields are safe to read from any goroutine. Train is
// deterministic for a given seed (it parallelises via internal/par) and
// must complete before the forest is shared. A decoded forest is
// validated before it is returned, so inference never loops or indexes
// out of range on a malformed artifact.
package rf

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"

	"repro/internal/par"
	"repro/internal/rng"
)

// Criterion selects the split impurity measure.
type Criterion int

const (
	// Gini is the Gini impurity (scikit-learn's default).
	Gini Criterion = iota
	// Entropy is the information-gain criterion.
	Entropy
)

// String returns the scikit-learn name of the criterion.
func (c Criterion) String() string {
	if c == Entropy {
		return "entropy"
	}
	return "gini"
}

// Params configures forest training. The zero value selects the defaults
// noted per field.
type Params struct {
	// NumTrees is the ensemble size (n_estimators); default 100.
	NumTrees int
	// MaxDepth limits tree depth; 0 means unlimited.
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for splitting;
	// default 2.
	MinSamplesSplit int
	// MinSamplesLeaf is the minimum samples in each child; default 1.
	MinSamplesLeaf int
	// MaxFeatures is the per-node feature budget: "sqrt" (default),
	// "log2", "all", or a fraction like "0.25".
	MaxFeatures string
	// Criterion selects Gini or Entropy.
	Criterion Criterion
	// Balanced applies class weights inversely proportional to class
	// frequencies, the paper's answer to its imbalanced dataset.
	Balanced bool
	// Seed drives bootstrap and feature sampling; equal seeds and data
	// give identical forests regardless of worker count.
	Seed uint64
	// Workers bounds training parallelism; <= 0 selects GOMAXPROCS.
	Workers int
}

// withDefaults returns p with unset fields filled in.
func (p Params) withDefaults() Params {
	if p.NumTrees <= 0 {
		p.NumTrees = 100
	}
	if p.MinSamplesSplit < 2 {
		p.MinSamplesSplit = 2
	}
	if p.MinSamplesLeaf < 1 {
		p.MinSamplesLeaf = 1
	}
	if p.MaxFeatures == "" {
		p.MaxFeatures = "sqrt"
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// featureBudget resolves MaxFeatures against the feature count.
func featureBudget(spec string, numFeatures int) (int, error) {
	var k int
	switch spec {
	case "sqrt":
		k = int(math.Sqrt(float64(numFeatures)))
	case "log2":
		k = int(math.Log2(float64(numFeatures)))
	case "all", "none":
		k = numFeatures
	default:
		frac, err := strconv.ParseFloat(spec, 64)
		if err != nil || frac <= 0 || frac > 1 {
			return 0, fmt.Errorf("rf: invalid MaxFeatures %q", spec)
		}
		k = int(frac * float64(numFeatures))
	}
	if k < 1 {
		k = 1
	}
	if k > numFeatures {
		k = numFeatures
	}
	return k, nil
}

// Node is one tree node. Leaves have Feature == -1 and carry a sparse
// class-probability distribution.
type Node struct {
	// Feature is the split feature index, or -1 for a leaf.
	Feature int32
	// Threshold sends x[Feature] <= Threshold left.
	Threshold float64
	// Left and Right index into Tree.Nodes.
	Left, Right int32
	// Classes and Weights are the leaf's class distribution (weights sum
	// to 1); empty on internal nodes.
	Classes []int32
	// Weights parallels Classes.
	Weights []float32
}

// Tree is a trained CART decision tree.
type Tree struct {
	// Nodes holds the tree in preorder; Nodes[0] is the root.
	Nodes []Node
}

// Forest is a trained Random Forest.
type Forest struct {
	// NumClasses and NumFeatures describe the training data shape.
	NumClasses  int
	NumFeatures int
	// Trees are the ensemble members.
	Trees []*Tree
	// Importances are normalised mean-decrease-in-impurity feature
	// importances (sum to 1 when any split occurred).
	Importances []float64
	// Params echoes the training configuration.
	Params Params

	// flat is the inference-compiled form of Trees (see flatForest),
	// built by Train and UnmarshalJSON so the persistence format stays
	// the pointer-tree JSON. It is derived state: excluded from
	// marshalling and rebuilt after any load.
	flat *flatForest
}

// Train fits a forest on X (rows are samples) with integer labels y in
// [0, numClasses).
func Train(X [][]float64, y []int, numClasses int, p Params) (*Forest, error) {
	p = p.withDefaults()
	if len(X) == 0 {
		return nil, fmt.Errorf("rf: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("rf: %d rows but %d labels", len(X), len(y))
	}
	numFeatures := len(X[0])
	if numFeatures == 0 {
		return nil, fmt.Errorf("rf: samples have no features")
	}
	for i := range X {
		if len(X[i]) != numFeatures {
			return nil, fmt.Errorf("rf: row %d has %d features, want %d", i, len(X[i]), numFeatures)
		}
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("rf: need at least 2 classes, got %d", numClasses)
	}
	for i, label := range y {
		if label < 0 || label >= numClasses {
			return nil, fmt.Errorf("rf: label %d of sample %d out of range [0,%d)", label, i, numClasses)
		}
	}
	if _, err := featureBudget(p.MaxFeatures, numFeatures); err != nil {
		return nil, err
	}

	classWeights := make([]float64, numClasses)
	for i := range classWeights {
		classWeights[i] = 1
	}
	if p.Balanced {
		// sklearn's "balanced": n_samples / (n_classes * bincount(y)),
		// with absent classes contributing nothing.
		counts := make([]int, numClasses)
		present := 0
		for _, label := range y {
			if counts[label] == 0 {
				present++
			}
			counts[label]++
		}
		for c := range classWeights {
			if counts[c] > 0 {
				classWeights[c] = float64(len(y)) / (float64(present) * float64(counts[c]))
			} else {
				classWeights[c] = 0
			}
		}
	}

	f := &Forest{
		NumClasses:  numClasses,
		NumFeatures: numFeatures,
		Trees:       make([]*Tree, p.NumTrees),
		Importances: make([]float64, numFeatures),
		Params:      p,
	}
	root := rng.New(p.Seed)
	importances := make([][]float64, p.NumTrees)

	par.Map(p.NumTrees, p.Workers, func(t int) {
		b := &treeBuilder{
			X: X, y: y,
			numClasses:   numClasses,
			params:       p,
			classWeights: classWeights,
			src:          root.ChildN(uint64(t)),
			importance:   make([]float64, numFeatures),
		}
		f.Trees[t] = b.build()
		importances[t] = b.importance
	})

	// Average per-tree normalised importances, then renormalise, matching
	// scikit-learn's feature_importances_.
	for _, imp := range importances {
		total := 0.0
		for _, v := range imp {
			total += v
		}
		if total <= 0 {
			continue
		}
		for i, v := range imp {
			f.Importances[i] += v / total
		}
	}
	total := 0.0
	for _, v := range f.Importances {
		total += v
	}
	if total > 0 {
		for i := range f.Importances {
			f.Importances[i] /= total
		}
	}
	f.flat = flatten(f.Trees)
	return f, nil
}

// PredictProba returns the class-probability distribution for one sample:
// the average of the leaf distributions across trees. Inference runs on
// the flattened forest (see flatForest).
//
// fhc:hotpath
func (f *Forest) PredictProba(x []float64) []float64 {
	fl := f.flat
	proba := make([]float64, f.NumClasses)
	for t := range fl.trees {
		fl.trees[t].accumulate(x, fl, proba)
	}
	inv := 1 / float64(len(f.Trees))
	for i := range proba {
		proba[i] *= inv
	}
	return proba
}

// UnmarshalJSON decodes a persisted forest and rejects one that
// inference could not walk safely. Training emits every tree in
// preorder, so each child index must lie after its parent's and inside
// the tree: that rules out both cycles, which would never finish a
// walk, and dangling indices, which would panic. A valid forest is
// flattened before UnmarshalJSON returns.
func (f *Forest) UnmarshalJSON(data []byte) error {
	type forestFields Forest // drops this method, so Decode does not recurse
	if err := json.Unmarshal(data, (*forestFields)(f)); err != nil {
		return err
	}
	if len(f.Trees) == 0 {
		return fmt.Errorf("rf: model has no trees")
	}
	if f.NumClasses < 2 || f.NumFeatures < 1 {
		return fmt.Errorf("rf: model has %d classes and %d features", f.NumClasses, f.NumFeatures)
	}
	if len(f.Importances) != f.NumFeatures {
		return fmt.Errorf("rf: %d importances for %d features", len(f.Importances), f.NumFeatures)
	}
	for t, tree := range f.Trees {
		if tree == nil || len(tree.Nodes) == 0 {
			return fmt.Errorf("rf: tree %d is empty", t)
		}
		if err := tree.validate(f.NumClasses, f.NumFeatures); err != nil {
			return fmt.Errorf("rf: tree %d: %w", t, err)
		}
	}
	f.flat = flatten(f.Trees)
	return nil
}

// validate checks one decoded tree's node indices and leaf payloads.
func (t *Tree) validate(numClasses, numFeatures int) error {
	n := int32(len(t.Nodes))
	for i := range t.Nodes {
		nd := &t.Nodes[i]
		if len(nd.Classes) != len(nd.Weights) {
			return fmt.Errorf("node %d has %d classes but %d weights", i, len(nd.Classes), len(nd.Weights))
		}
		if nd.Feature == -1 {
			for _, c := range nd.Classes {
				if c < 0 || int(c) >= numClasses {
					return fmt.Errorf("leaf %d names class %d of %d", i, c, numClasses)
				}
			}
			continue
		}
		if nd.Feature < 0 || int(nd.Feature) >= numFeatures {
			return fmt.Errorf("node %d splits on feature %d of %d", i, nd.Feature, numFeatures)
		}
		if p := int32(i); nd.Left <= p || nd.Left >= n || nd.Right <= p || nd.Right >= n {
			return fmt.Errorf("node %d has children %d and %d, want indices in (%d, %d)", i, nd.Left, nd.Right, p, n)
		}
	}
	return nil
}

// treeBuilder carries the state of one tree's construction.
type treeBuilder struct {
	X            [][]float64
	y            []int
	numClasses   int
	params       Params
	classWeights []float64
	src          *rng.Source
	importance   []float64
	nodes        []Node
}

// build bootstraps the training set and grows the tree.
func (b *treeBuilder) build() *Tree {
	n := len(b.X)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = b.src.Intn(n)
	}
	sort.Ints(idx) // improves locality; has no statistical effect
	b.grow(idx, 0)
	return &Tree{Nodes: b.nodes}
}

// grow recursively grows the subtree over the bootstrap indices idx and
// returns its node position.
func (b *treeBuilder) grow(idx []int, depth int) int32 {
	counts := make([]float64, b.numClasses)
	total := 0.0
	for _, i := range idx {
		w := b.classWeights[b.y[i]]
		counts[b.y[i]] += w
		total += w
	}
	imp := impurity(counts, total, b.params.Criterion)

	pos := int32(len(b.nodes))
	b.nodes = append(b.nodes, Node{Feature: -1})

	leaf := func() int32 {
		node := &b.nodes[pos]
		for c, w := range counts {
			if w > 0 {
				node.Classes = append(node.Classes, int32(c))
				node.Weights = append(node.Weights, float32(w/total))
			}
		}
		return pos
	}

	if len(idx) < b.params.MinSamplesSplit || imp <= 1e-12 ||
		(b.params.MaxDepth > 0 && depth >= b.params.MaxDepth) {
		return leaf()
	}

	feature, threshold, gain := b.bestSplit(idx, counts, total, imp)
	if feature < 0 {
		return leaf()
	}

	var left, right []int
	for _, i := range idx {
		if b.X[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.params.MinSamplesLeaf || len(right) < b.params.MinSamplesLeaf {
		return leaf()
	}
	b.importance[feature] += gain * total

	b.nodes[pos].Feature = int32(feature)
	b.nodes[pos].Threshold = threshold
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.nodes[pos].Left = l
	b.nodes[pos].Right = r
	return pos
}

// bestSplit searches a random feature subset for the split maximising the
// weighted impurity decrease. It returns feature -1 when no valid split
// exists.
func (b *treeBuilder) bestSplit(idx []int, counts []float64, total, parentImp float64) (int, float64, float64) {
	numFeatures := len(b.X[0])
	k, _ := featureBudget(b.params.MaxFeatures, numFeatures)
	features := b.src.Sample(numFeatures, k)

	type valueWeight struct {
		v float64
		y int
	}
	pairs := make([]valueWeight, len(idx))
	leftCounts := make([]float64, b.numClasses)

	bestFeature, bestThreshold, bestGain := -1, 0.0, 0.0
	minLeaf := b.params.MinSamplesLeaf
	for _, f := range features {
		for i, s := range idx {
			pairs[i] = valueWeight{v: b.X[s][f], y: b.y[s]}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
		if pairs[0].v == pairs[len(pairs)-1].v {
			continue // constant feature in this node
		}
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		leftTotal := 0.0
		leftN := 0
		for i := 0; i < len(pairs)-1; i++ {
			w := b.classWeights[pairs[i].y]
			leftCounts[pairs[i].y] += w
			leftTotal += w
			leftN++
			if pairs[i].v == pairs[i+1].v {
				continue // can only split between distinct values
			}
			if leftN < minLeaf || len(pairs)-leftN < minLeaf {
				continue
			}
			rightTotal := total - leftTotal
			if leftTotal <= 0 || rightTotal <= 0 {
				continue
			}
			leftImp := impurityDiff(counts, leftCounts, leftTotal, rightTotal, b.params.Criterion)
			gain := parentImp - leftImp
			if gain > bestGain+1e-15 {
				bestGain = gain
				bestFeature = f
				bestThreshold = (pairs[i].v + pairs[i+1].v) / 2
			}
		}
	}
	return bestFeature, bestThreshold, bestGain
}

// impurity computes the Gini impurity or entropy of a weighted class
// distribution.
func impurity(counts []float64, total float64, c Criterion) float64 {
	if total <= 0 {
		return 0
	}
	if c == Entropy {
		h := 0.0
		for _, w := range counts {
			if w > 0 {
				p := w / total
				h -= p * math.Log2(p)
			}
		}
		return h
	}
	sumSq := 0.0
	for _, w := range counts {
		p := w / total
		sumSq += p * p
	}
	return 1 - sumSq
}

// impurityDiff computes the children's weighted impurity for a candidate
// split: (nL*imp(L) + nR*imp(R)) / (nL+nR), where the right counts are
// parent minus left.
func impurityDiff(parent, left []float64, leftTotal, rightTotal float64, c Criterion) float64 {
	total := leftTotal + rightTotal
	var impL, impR float64
	if c == Entropy {
		for i, w := range left {
			if w > 0 {
				p := w / leftTotal
				impL -= p * math.Log2(p)
			}
			if r := parent[i] - w; r > 0 {
				p := r / rightTotal
				impR -= p * math.Log2(p)
			}
		}
	} else {
		var sumL, sumR float64
		for i, w := range left {
			pL := w / leftTotal
			sumL += pL * pL
			r := parent[i] - w
			pR := r / rightTotal
			sumR += pR * pR
		}
		impL = 1 - sumL
		impR = 1 - sumR
	}
	return (leftTotal*impL + rightTotal*impR) / total
}
