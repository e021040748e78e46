// Package graph represents lowered DNN computational graphs.
//
// A model is a directed acyclic graph of low-level operator nodes (MatMul,
// Conv, LayerNorm, ...) in a fixed linear execution order, as in §3.1 of the
// paper: node IDs are layer indices 1..N up to a zero base, edges always
// point from lower to higher index, and each weight tensor is owned by the
// node that consumes it (so the first-consumer index i_w of §3.1 is simply
// the owning node's ID).
package graph

import (
	"fmt"
	"sync/atomic"

	"repro/internal/tensor"
	"repro/internal/units"
)

// OpKind identifies a lowered operator type.
type OpKind int

// Operator kinds. The set covers the models in Table 6: transformer blocks
// (MatMul, Attention, Softmax, LayerNorm, GeLU, Add, Embedding), CNN blocks
// (Conv, DepthwiseConv, BatchNorm, ReLU, Pool, Upsample), and layout ops
// that SmartMem-style planning eliminates (Reshape, Transpose, Concat).
const (
	MatMul OpKind = iota
	Conv
	DepthwiseConv
	Attention
	Embedding
	Add
	Mul
	ReLU
	GeLU
	SiLU
	Softmax
	LayerNorm
	GroupNorm
	BatchNorm
	Reshape
	Transpose
	Concat
	Pool
	Upsample
	numOpKinds
)

var opKindNames = [...]string{
	MatMul: "MatMul", Conv: "Conv", DepthwiseConv: "DepthwiseConv",
	Attention: "Attention", Embedding: "Embedding", Add: "Add", Mul: "Mul",
	ReLU: "ReLU", GeLU: "GeLU", SiLU: "SiLU", Softmax: "Softmax",
	LayerNorm: "LayerNorm", GroupNorm: "GroupNorm", BatchNorm: "BatchNorm",
	Reshape: "Reshape", Transpose: "Transpose", Concat: "Concat",
	Pool: "Pool", Upsample: "Upsample",
}

// String names the operator kind.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
	return opKindNames[k]
}

// Valid reports whether k is a known operator kind.
func (k OpKind) Valid() bool { return k >= 0 && k < numOpKinds }

// NodeID indexes a node within its graph; it equals the layer's position in
// the linear execution order.
type NodeID int

// Part is one primitive operator folded into a (possibly fused) node. An
// unfused node has exactly one part. The fusion pass merges parts; the
// adaptive un-fusion pass (§4.3) splits them back out.
type Part struct {
	Kind     OpKind
	Weight   units.Bytes // weight tensor bytes consumed by this part (0 = none)
	InBytes  units.Bytes // activation input volume
	OutBytes units.Bytes // activation output volume
	MACs     units.MACs
}

// Node is one schedulable kernel in the lowered graph.
type Node struct {
	ID     NodeID
	Name   string
	Inputs []NodeID // producing nodes; every entry is < ID
	Parts  []Part   // primitive ops in execution order within the kernel
}

// Kind returns the dominant operator kind: the part with the most MACs,
// breaking ties toward the first part.
func (n *Node) Kind() OpKind {
	best := 0
	for i := 1; i < len(n.Parts); i++ {
		if n.Parts[i].MACs > n.Parts[best].MACs {
			best = i
		}
	}
	return n.Parts[best].Kind
}

// Fused reports whether the node holds more than one primitive op.
func (n *Node) Fused() bool { return len(n.Parts) > 1 }

// Weight returns the total weight bytes the node consumes.
func (n *Node) Weight() units.Bytes {
	var total units.Bytes
	for _, p := range n.Parts {
		total += p.Weight
	}
	return total
}

// InBytes returns the activation input volume of the node: the first part's
// input plus any weightless side inputs of later parts are approximated by
// the maximum part input (intermediate tensors stay in registers/local
// memory after fusion).
func (n *Node) InBytes() units.Bytes {
	var max units.Bytes
	for _, p := range n.Parts {
		if p.InBytes > max {
			max = p.InBytes
		}
	}
	return max
}

// OutBytes returns the node's activation output volume (the last part's).
func (n *Node) OutBytes() units.Bytes {
	if len(n.Parts) == 0 {
		return 0
	}
	return n.Parts[len(n.Parts)-1].OutBytes
}

// MACs returns the node's total multiply-accumulate count.
func (n *Node) MACs() units.MACs {
	var total units.MACs
	for _, p := range n.Parts {
		total += p.MACs
	}
	return total
}

// Graph is a lowered model in linear execution order.
type Graph struct {
	Name  string
	DType tensor.DType

	nodes []*Node
	fp    atomic.Pointer[string] // memoized Fingerprint; Add and Replace reset it
}

// New returns an empty graph using the given weight dtype.
func New(name string, dt tensor.DType) *Graph {
	return &Graph{Name: name, DType: dt}
}

// Add appends a node, assigning the next NodeID. Inputs must reference
// already-added nodes. A node with no parts or an invalid kind panics:
// model builders are trusted, and failing fast localizes builder bugs.
func (g *Graph) Add(name string, inputs []NodeID, parts ...Part) NodeID {
	id := NodeID(len(g.nodes))
	if len(parts) == 0 {
		panic(fmt.Sprintf("graph %s: node %q has no parts", g.Name, name))
	}
	for _, p := range parts {
		if !p.Kind.Valid() {
			panic(fmt.Sprintf("graph %s: node %q has invalid kind %d", g.Name, name, int(p.Kind)))
		}
		if p.Weight < 0 || p.InBytes < 0 || p.OutBytes < 0 || p.MACs < 0 {
			panic(fmt.Sprintf("graph %s: node %q has negative sizes", g.Name, name))
		}
	}
	for _, in := range inputs {
		if in < 0 || in >= id {
			panic(fmt.Sprintf("graph %s: node %q input %d out of range [0,%d)", g.Name, name, in, id))
		}
	}
	n := &Node{ID: id, Name: name, Inputs: append([]NodeID(nil), inputs...), Parts: append([]Part(nil), parts...)}
	g.nodes = append(g.nodes, n)
	g.fp.Store(nil)
	return id
}

// Op is shorthand for Add with a single part and the previous node as input
// (or no input for the first node) — the common sequential-builder case.
func (g *Graph) Op(name string, p Part) NodeID {
	var inputs []NodeID
	if len(g.nodes) > 0 {
		inputs = []NodeID{NodeID(len(g.nodes) - 1)}
	}
	return g.Add(name, inputs, p)
}

// Len returns the number of nodes (the N of §3.1).
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("graph %s: node id %d out of range", g.Name, id))
	}
	return g.nodes[id]
}

// Nodes returns the nodes in execution order. The slice is shared; callers
// must not mutate it structurally (use Replace for graph surgery).
func (g *Graph) Nodes() []*Node { return g.nodes }

// Validate checks structural invariants: IDs match positions, inputs point
// backwards (acyclicity), parts are well formed.
func (g *Graph) Validate() error {
	for i, n := range g.nodes {
		if n.ID != NodeID(i) {
			return fmt.Errorf("graph %s: node at %d has ID %d", g.Name, i, n.ID)
		}
		if len(n.Parts) == 0 {
			return fmt.Errorf("graph %s: node %d has no parts", g.Name, i)
		}
		for _, in := range n.Inputs {
			if in < 0 || in >= NodeID(i) {
				return fmt.Errorf("graph %s: node %d has forward/self input %d", g.Name, i, in)
			}
		}
		for _, p := range n.Parts {
			if !p.Kind.Valid() {
				return fmt.Errorf("graph %s: node %d has invalid kind", g.Name, i)
			}
		}
	}
	return nil
}

// Replace substitutes the node at id with the given replacement nodes,
// renumbering all subsequent nodes and rewriting their input references.
// Replacement nodes must form a chain: the first inherits the original
// inputs, each later one consumes its predecessor. References to the
// original node are rewired to the last replacement. Used by adaptive
// un-fusion (§4.3).
func (g *Graph) Replace(id NodeID, replacements []*Node) {
	if len(replacements) == 0 {
		panic("graph: Replace with no replacements")
	}
	orig := g.Node(id)
	shift := NodeID(len(replacements) - 1)

	rewired := make([]*Node, 0, len(g.nodes)+int(shift))
	rewired = append(rewired, g.nodes[:id]...)
	for i, r := range replacements {
		nn := &Node{ID: id + NodeID(i), Name: r.Name, Parts: r.Parts}
		if i == 0 {
			nn.Inputs = append([]NodeID(nil), orig.Inputs...)
		} else {
			nn.Inputs = []NodeID{id + NodeID(i) - 1}
		}
		rewired = append(rewired, nn)
	}
	for _, n := range g.nodes[id+1:] {
		nn := &Node{ID: n.ID + shift, Name: n.Name, Parts: n.Parts}
		nn.Inputs = make([]NodeID, len(n.Inputs))
		for j, in := range n.Inputs {
			switch {
			case in < id:
				nn.Inputs[j] = in
			case in == id:
				nn.Inputs[j] = id + shift // last replacement
			default:
				nn.Inputs[j] = in + shift
			}
		}
		rewired = append(rewired, nn)
	}
	g.nodes = rewired
	g.fp.Store(nil)
}

// Clone returns a deep copy of the graph; mutating one copy (e.g. via
// Replace) leaves the other untouched. The copy starts without a memoized
// Fingerprint.
func (g *Graph) Clone() *Graph {
	out := New(g.Name, g.DType)
	out.nodes = make([]*Node, len(g.nodes))
	for i, n := range g.nodes {
		out.nodes[i] = &Node{
			ID:     n.ID,
			Name:   n.Name,
			Inputs: append([]NodeID(nil), n.Inputs...),
			Parts:  append([]Part(nil), n.Parts...),
		}
	}
	return out
}

// TotalWeightBytes sums weight bytes over all nodes.
func (g *Graph) TotalWeightBytes() units.Bytes {
	var total units.Bytes
	for _, n := range g.nodes {
		total += n.Weight()
	}
	return total
}

// TotalMACs sums MACs over all nodes.
func (g *Graph) TotalMACs() units.MACs {
	var total units.MACs
	for _, n := range g.nodes {
		total += n.MACs()
	}
	return total
}

// Params returns the parameter count implied by weight bytes and dtype.
func (g *Graph) Params() int64 {
	return int64(g.TotalWeightBytes() / g.DType.Size())
}

// WeightedNodes returns the IDs of nodes that consume weights, in order.
func (g *Graph) WeightedNodes() []NodeID {
	var ids []NodeID
	for _, n := range g.nodes {
		if n.Weight() > 0 {
			ids = append(ids, n.ID)
		}
	}
	return ids
}
