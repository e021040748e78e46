package opg

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/units"
)

// The solver runs offline, "generating a reusable overlap plan that incurs
// no runtime overhead during inference" (§3.2). Plans therefore serialize:
// solve once on a workstation, ship the JSON with the model, load and
// validate on device.

// planJSON is the stable wire format.
type planJSON struct {
	Version   int          `json:"version"`
	Model     string       `json:"model"`
	ChunkSize int64        `json:"chunk_size"`
	MPeak     int64        `json:"m_peak"`
	Weights   []weightJSON `json:"weights"`
}

type weightJSON struct {
	Weight     int              `json:"weight"`
	Bytes      int64            `json:"bytes"`
	Chunks     int              `json:"chunks"`
	Preload    bool             `json:"preload,omitempty"`
	LoadStart  int              `json:"load_start,omitempty"`
	Transforms []assignmentJSON `json:"transforms,omitempty"`
}

type assignmentJSON struct {
	Layer  int `json:"layer"`
	Chunks int `json:"chunks"`
}

const planFormatVersion = 1

// Encode writes the plan as indented JSON.
func (p *Plan) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.wireFormat())
}

// Wire returns the plan's compact encoding: the JSON Encode writes, without
// its indentation and trailing newline. Its bytes equal
// json.Marshal(json.RawMessage(<Encode output>)), which is the form /plan
// and /replan responses carry, so a server can keep them and write them
// into every response without re-encoding or re-compacting.
func (p *Plan) Wire() ([]byte, error) {
	return json.Marshal(p.wireFormat())
}

// wireFormat builds the plan's stable wire format.
func (p *Plan) wireFormat() planJSON {
	out := planJSON{
		Version:   planFormatVersion,
		Model:     p.Model,
		ChunkSize: int64(p.ChunkSize),
		MPeak:     int64(p.MPeak),
	}
	for _, wp := range p.Weights {
		wj := weightJSON{
			Weight: int(wp.Weight), Bytes: int64(wp.Bytes), Chunks: wp.Chunks,
			Preload: wp.Preload, LoadStart: int(wp.LoadStart),
		}
		for _, a := range wp.Transforms {
			wj.Transforms = append(wj.Transforms, assignmentJSON{Layer: int(a.Layer), Chunks: a.Chunks})
		}
		out.Weights = append(out.Weights, wj)
	}
	return out
}

// Decode reads a plan previously written by Encode. Structural sanity is
// checked here; call Validate against the target graph before executing.
func Decode(r io.Reader) (*Plan, error) {
	var in planJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("opg: decoding plan: %w", err)
	}
	if in.Version != planFormatVersion {
		return nil, fmt.Errorf("opg: plan format version %d, want %d", in.Version, planFormatVersion)
	}
	if in.ChunkSize <= 0 {
		return nil, fmt.Errorf("opg: plan has non-positive chunk size")
	}
	p := &Plan{
		Model:     in.Model,
		ChunkSize: units.Bytes(in.ChunkSize),
		MPeak:     units.Bytes(in.MPeak),
	}
	for _, wj := range in.Weights {
		wp := WeightPlan{
			Weight: graph.NodeID(wj.Weight), Bytes: units.Bytes(wj.Bytes), Chunks: wj.Chunks,
			Preload: wj.Preload, LoadStart: graph.NodeID(wj.LoadStart),
		}
		for _, a := range wj.Transforms {
			wp.Transforms = append(wp.Transforms, Assignment{Layer: graph.NodeID(a.Layer), Chunks: a.Chunks})
		}
		p.Weights = append(p.Weights, wp)
	}
	return p, nil
}
