package rf

// The pointer-walking inference: the differential oracle the flattened
// forest is tested against. It walks the training Tree/Node form, so it
// shares no code with flatForest.

// predictProbaOracle averages the leaf distributions of x across trees,
// in the same accumulation order as PredictProba.
func (f *Forest) predictProbaOracle(x []float64) []float64 {
	proba := make([]float64, f.NumClasses)
	for _, t := range f.Trees {
		leaf := t.leaf(x)
		for i, c := range leaf.Classes {
			proba[c] += float64(leaf.Weights[i])
		}
	}
	inv := 1 / float64(len(f.Trees))
	for i := range proba {
		proba[i] *= inv
	}
	return proba
}

// leaf walks the tree to the leaf owning x.
func (t *Tree) leaf(x []float64) *Node {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return n
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}
