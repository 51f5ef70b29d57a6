package tree

import (
	"encoding/json"
	"errors"
	"fmt"

	"acsel/internal/wire"
)

// jsonNode mirrors node with exported fields for serialization.
type jsonNode struct {
	Feature   int       `json:"feature"`
	Threshold float64   `json:"threshold"`
	Left      *jsonNode `json:"left,omitempty"`
	Right     *jsonNode `json:"right,omitempty"`
	Leaf      bool      `json:"leaf"`
	Class     int       `json:"class"`
	N         int       `json:"n"`
	Counts    []int     `json:"counts,omitempty"`
}

type jsonTree struct {
	Root     *jsonNode `json:"root"`
	NClasses int       `json:"n_classes"`
	NFeats   int       `json:"n_features"`
	Names    []string  `json:"feature_names,omitempty"`
	Depth    int       `json:"depth"`
	Leaves   int       `json:"leaves"`
}

// MarshalJSON serializes the trained tree.
func (t *Tree) MarshalJSON() ([]byte, error) {
	if t.root == nil {
		return nil, errors.New("tree: marshaling an untrained tree")
	}
	return json.Marshal(jsonTree{
		Root:     toJSONNode(t.root),
		NClasses: t.nClasses,
		NFeats:   t.nFeats,
		Names:    t.names,
		Depth:    t.depth,
		Leaves:   t.leaves,
	})
}

// UnmarshalJSON restores a tree serialized by MarshalJSON. It decodes
// strictly itself: a decoder's DisallowUnknownFields does not reach a
// nested UnmarshalJSON.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var jt jsonTree
	if err := wire.Unmarshal(data, &jt); err != nil {
		return err
	}
	if jt.Root == nil {
		return errors.New("tree: missing root")
	}
	root, err := fromJSONNode(jt.Root, jt.NFeats)
	if err != nil {
		return err
	}
	t.root = root
	t.nClasses = jt.NClasses
	t.nFeats = jt.NFeats
	t.names = jt.Names
	t.depth = jt.Depth
	t.leaves = jt.Leaves
	return nil
}

func toJSONNode(n *node) *jsonNode {
	if n == nil {
		return nil
	}
	return &jsonNode{
		Feature:   n.feature,
		Threshold: n.threshold,
		Left:      toJSONNode(n.left),
		Right:     toJSONNode(n.right),
		Leaf:      n.leaf,
		Class:     n.class,
		N:         n.n,
		Counts:    n.counts,
	}
}

// fromJSONNode rebuilds a subtree, rejecting an internal node whose
// feature is outside [0, nFeats): Classify would index past the input.
func fromJSONNode(j *jsonNode, nFeats int) (*node, error) {
	n := &node{
		feature:   j.Feature,
		threshold: j.Threshold,
		leaf:      j.Leaf,
		class:     j.Class,
		n:         j.N,
		counts:    j.Counts,
	}
	if n.leaf {
		if j.Left != nil || j.Right != nil {
			return nil, fmt.Errorf("tree: leaf with children")
		}
		return n, nil
	}
	if j.Left == nil || j.Right == nil {
		return nil, fmt.Errorf("tree: internal node missing a child")
	}
	if n.feature < 0 || n.feature >= nFeats {
		return nil, fmt.Errorf("tree: node feature %d outside [0, %d)", n.feature, nFeats)
	}
	var err error
	if n.left, err = fromJSONNode(j.Left, nFeats); err != nil {
		return nil, err
	}
	if n.right, err = fromJSONNode(j.Right, nFeats); err != nil {
		return nil, err
	}
	return n, nil
}
