package graph

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
	"repro/internal/units"
)

func linear(name string, weight units.Bytes, macs units.MACs) Part {
	return Part{Kind: MatMul, Weight: weight, InBytes: 1024, OutBytes: 1024, MACs: macs}
}

func TestBuildAndStats(t *testing.T) {
	g := New("toy", tensor.FP16)
	a := g.Op("embed", Part{Kind: Embedding, Weight: 2048, InBytes: 64, OutBytes: 1024})
	b := g.Op("fc1", linear("fc1", 4096, 1000))
	c := g.Add("add", []NodeID{a, b}, Part{Kind: Add, InBytes: 1024, OutBytes: 1024})
	if c != 2 {
		t.Fatalf("ids not sequential: got %d", c)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalWeightBytes() != 6144 {
		t.Errorf("weights = %d, want 6144", g.TotalWeightBytes())
	}
	if g.Params() != 3072 {
		t.Errorf("params = %d, want 3072 (fp16)", g.Params())
	}
	if g.TotalMACs() != 1000 {
		t.Errorf("macs = %d, want 1000", g.TotalMACs())
	}
	if got := g.WeightedNodes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("weighted nodes = %v", got)
	}
}

func TestForwardInputPanics(t *testing.T) {
	g := New("bad", tensor.FP16)
	defer func() {
		if recover() == nil {
			t.Fatal("forward reference should panic")
		}
	}()
	g.Add("x", []NodeID{0}, Part{Kind: Add}) // self-reference at build time
}

func TestNoPartsPanics(t *testing.T) {
	g := New("bad", tensor.FP16)
	defer func() {
		if recover() == nil {
			t.Fatal("no parts should panic")
		}
	}()
	g.Add("x", nil)
}

func TestNodeAggregates(t *testing.T) {
	n := &Node{Parts: []Part{
		{Kind: MatMul, Weight: 100, InBytes: 10, OutBytes: 20, MACs: 1000},
		{Kind: Add, InBytes: 20, OutBytes: 20, MACs: 5},
		{Kind: GeLU, InBytes: 20, OutBytes: 30, MACs: 10},
	}}
	if !n.Fused() {
		t.Error("node with 3 parts should be fused")
	}
	if n.Kind() != MatMul {
		t.Errorf("dominant kind = %v, want MatMul", n.Kind())
	}
	if n.Weight() != 100 || n.MACs() != 1015 {
		t.Errorf("weight/macs = %d/%d", n.Weight(), n.MACs())
	}
	if n.OutBytes() != 30 {
		t.Errorf("out bytes = %d, want 30 (last part)", n.OutBytes())
	}
	if n.InBytes() != 20 {
		t.Errorf("in bytes = %d, want 20 (max part input)", n.InBytes())
	}
}

func TestReplaceChain(t *testing.T) {
	g := New("r", tensor.FP16)
	a := g.Op("a", Part{Kind: Conv, Weight: 10})
	fused := g.Op("fused", Part{Kind: MatMul, Weight: 20})
	g.Add("consumer", []NodeID{a, fused}, Part{Kind: Add})
	g.Add("tail", []NodeID{2}, Part{Kind: ReLU})

	g.Replace(fused, []*Node{
		{Name: "mm", Parts: []Part{{Kind: MatMul, Weight: 20}}},
		{Name: "gelu", Parts: []Part{{Kind: GeLU}}},
	})

	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("len = %d, want 5", g.Len())
	}
	// consumer (now id 3) must reference a (0) and the LAST replacement (2).
	cons := g.Node(3)
	if cons.Name != "consumer" || cons.Inputs[0] != 0 || cons.Inputs[1] != 2 {
		t.Errorf("consumer inputs = %v, want [0 2]", cons.Inputs)
	}
	// The inserted gelu consumes the inserted matmul.
	if g.Node(2).Inputs[0] != 1 {
		t.Errorf("gelu input = %v, want [1]", g.Node(2).Inputs)
	}
	// tail (now 4) references consumer (3).
	if g.Node(4).Inputs[0] != 3 {
		t.Errorf("tail input = %v, want [3]", g.Node(4).Inputs)
	}
}

func TestReplacePreservesTotalsProperty(t *testing.T) {
	// Property: replacing any node with a split of its own parts preserves
	// total weights and MACs and keeps the graph valid.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30)
		wantW, wantM := g.TotalWeightBytes(), g.TotalMACs()

		// Pick a fused node if any; otherwise nothing to split.
		var target *Node
		for _, n := range g.Nodes() {
			if n.Fused() {
				target = n
				break
			}
		}
		if target == nil {
			return true
		}
		k := len(target.Parts) / 2
		g.Replace(target.ID, []*Node{
			{Name: "s1", Parts: target.Parts[:k]},
			{Name: "s2", Parts: target.Parts[k:]},
		})
		if g.Validate() != nil {
			return false
		}
		return g.TotalWeightBytes() == wantW && g.TotalMACs() == wantM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a random valid graph for property tests.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := New("rand", tensor.FP16)
	kinds := []OpKind{MatMul, Conv, Add, ReLU, GeLU, Softmax, LayerNorm, Attention}
	for i := 0; i < n; i++ {
		nparts := 1 + rng.Intn(3)
		parts := make([]Part, nparts)
		for j := range parts {
			parts[j] = Part{
				Kind:     kinds[rng.Intn(len(kinds))],
				Weight:   units.Bytes(rng.Intn(10000)),
				InBytes:  units.Bytes(1 + rng.Intn(4096)),
				OutBytes: units.Bytes(1 + rng.Intn(4096)),
				MACs:     units.MACs(rng.Intn(100000)),
			}
		}
		var inputs []NodeID
		if i > 0 {
			inputs = append(inputs, NodeID(rng.Intn(i)))
			if rng.Intn(3) == 0 {
				inputs = append(inputs, NodeID(rng.Intn(i)))
			}
		}
		g.Add("n", inputs, parts...)
	}
	return g
}

func TestOpKindString(t *testing.T) {
	if MatMul.String() != "MatMul" || LayerNorm.String() != "LayerNorm" {
		t.Error("op kind names wrong")
	}
	if OpKind(-1).Valid() || OpKind(999).Valid() {
		t.Error("invalid kinds reported valid")
	}
}

// rebuilt builds a fresh graph with g's content through Add, so its
// fingerprint is computed from scratch.
func rebuilt(g *Graph) *Graph {
	out := New(g.Name, g.DType)
	for _, n := range g.Nodes() {
		out.Add(n.Name, n.Inputs, n.Parts...)
	}
	return out
}

// TestFingerprintMemoTracksMutation: the memoized fingerprint equals a
// freshly built graph's after every Add and Replace, a Clone hashes like
// its original, and mutating the clone leaves the original's hash alone.
func TestFingerprintMemoTracksMutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20)
		before := g.Fingerprint()
		if before != rebuilt(g).Fingerprint() {
			return false
		}

		g.Add("extra", []NodeID{NodeID(rng.Intn(g.Len()))}, linear("extra", 64, 10))
		afterAdd := g.Fingerprint()
		if afterAdd == before || afterAdd != rebuilt(g).Fingerprint() {
			return false
		}

		clone := g.Clone()
		if clone.Fingerprint() != afterAdd {
			return false
		}
		n := clone.Node(NodeID(rng.Intn(clone.Len())))
		clone.Replace(n.ID, []*Node{
			{Name: "r1", Parts: n.Parts},
			{Name: "r2", Parts: []Part{{Kind: ReLU, InBytes: 8, OutBytes: 8}}},
		})
		afterReplace := clone.Fingerprint()
		return afterReplace != afterAdd && afterReplace == rebuilt(clone).Fingerprint() &&
			g.Fingerprint() == afterAdd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFingerprintConcurrent: concurrent first calls agree (run under -race).
func TestFingerprintConcurrent(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(1)), 200)
	want := rebuilt(g).Fingerprint()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if got := g.Fingerprint(); got != want {
					t.Errorf("concurrent fingerprint %s, want %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
