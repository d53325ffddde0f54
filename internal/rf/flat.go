package rf

// This file holds the inference-compiled form of a trained forest.
// Training and persistence keep the pointer-linked Tree/Node shape (the
// JSON artifact format is unchanged); Train and UnmarshalJSON flatten
// the forest once, before returning it, into contiguous node arrays
// sized for cache residency, and PredictProba, the only prediction
// path, traverses the flat form. The tests hold it to a pointer walk
// over Tree.Nodes: the two produce bit-identical distributions because
// the flat walk visits the same splits and accumulates the same leaf
// weights in the same order. Decoding validated the node indices
// (Forest.UnmarshalJSON), so every walk ends at a leaf.

// flatNode is one tree node in inference layout: split nodes carry the
// feature index, threshold and child offsets; leaves (feature == -1)
// carry the offset and length of their class-weight run in the forest's
// shared payload arrays. At 24 bytes a cache line holds more than two
// nodes, versus the 72-byte training Node whose per-leaf slice headers
// scatter payloads across the heap.
type flatNode struct {
	threshold float64
	// feature is the split feature index, or -1 for a leaf.
	feature int32
	// left and right index the tree's node array on split nodes. On a
	// leaf, left is the payload offset and right the payload length.
	left, right int32
}

// flatTree is one compiled tree: nodes in the same preorder as
// Tree.Nodes, so node indices coincide with the training layout.
type flatTree struct {
	nodes []flatNode
}

// flatForest is the compiled ensemble. Leaf payloads of every tree share
// two contiguous arrays, indexed by the leaves' (offset, length) pairs.
type flatForest struct {
	trees []flatTree
	// classes and weights are the concatenated sparse leaf
	// distributions, parallel slices.
	classes []int32
	weights []float32
}

// flatten compiles pointer-linked trees into the inference layout.
func flatten(trees []*Tree) *flatForest {
	fl := &flatForest{trees: make([]flatTree, len(trees))}
	for t, tree := range trees {
		nodes := make([]flatNode, len(tree.Nodes))
		for i := range tree.Nodes {
			n := &tree.Nodes[i]
			if n.Feature < 0 {
				nodes[i] = flatNode{
					feature: -1,
					left:    int32(len(fl.classes)),
					right:   int32(len(n.Classes)),
				}
				fl.classes = append(fl.classes, n.Classes...)
				fl.weights = append(fl.weights, n.Weights...)
				continue
			}
			nodes[i] = flatNode{
				threshold: n.Threshold,
				feature:   n.Feature,
				left:      n.Left,
				right:     n.Right,
			}
		}
		fl.trees[t] = flatTree{nodes: nodes}
	}
	return fl
}

// accumulate walks x to its leaf and adds the leaf's sparse class
// distribution into proba.
//
// fhc:hotpath
func (ft *flatTree) accumulate(x []float64, fl *flatForest, proba []float64) {
	nodes := ft.nodes
	i := int32(0)
	for {
		n := &nodes[i]
		if n.feature < 0 {
			end := n.left + n.right
			for k := n.left; k < end; k++ {
				proba[fl.classes[k]] += float64(fl.weights[k])
			}
			return
		}
		if x[n.feature] <= n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}
