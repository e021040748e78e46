package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
)

// Fingerprint returns a stable content hash of the graph: name, dtype, and
// every node's name, inputs, and parts in execution order. Two graphs built
// the same way hash identically across processes, so the hash is usable as
// a persistent cache key. Mutating the graph (Add, Replace) changes it.
//
// The hash is computed once and memoized: every warm plan lookup keys on
// it, and hashing a 2,000-node graph costs far more than the lookup. Add
// and Replace reset the memo; changing Name, DType or a node in place
// after the first call is unsupported and would leave it stale. Safe for
// concurrent use while the graph is not being mutated.
func (g *Graph) Fingerprint() string {
	if fp := g.fp.Load(); fp != nil {
		return *fp
	}
	fp := g.fingerprint()
	g.fp.Store(&fp)
	return fp
}

// fingerprint hashes the graph's content.
func (g *Graph) fingerprint() string {
	h := sha256.New()
	writeString(h, g.Name)
	writeInt(h, int64(g.DType))
	writeInt(h, int64(len(g.nodes)))
	for _, n := range g.nodes {
		writeInt(h, int64(n.ID))
		writeString(h, n.Name)
		writeInt(h, int64(len(n.Inputs)))
		for _, in := range n.Inputs {
			writeInt(h, int64(in))
		}
		writeInt(h, int64(len(n.Parts)))
		for _, p := range n.Parts {
			writeInt(h, int64(p.Kind))
			writeInt(h, int64(p.Weight))
			writeInt(h, int64(p.InBytes))
			writeInt(h, int64(p.OutBytes))
			writeInt(h, int64(p.MACs))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeString hashes a length-prefixed string, so concatenations of
// adjacent fields cannot collide.
func writeString(w io.Writer, s string) {
	writeInt(w, int64(len(s)))
	io.WriteString(w, s)
}

func writeInt(w io.Writer, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	w.Write(buf[:])
}
