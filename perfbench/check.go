package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/opg"
)

// The benchmark's output checks. Every served plan is checked against
// properties (the §3.1 constraints for the state it was served under, the
// simulator's kernel-time floor) and against independent in-process
// computations of the same key — never against a stored copy.

// checkPlan verifies a plan against C0–C3 (opg.Plan.Validate) for the
// graph, capacities and configuration it was served under, and that it
// declares that configuration's chunk size and M_peak, so a plan cannot
// pass C2 by carrying a looser budget of its own.
func checkPlan(p *opg.Plan, g *graph.Graph, caps opg.Capacity, cfg opg.Config) error {
	if p.ChunkSize != cfg.ChunkSize {
		return fmt.Errorf("plan chunk size %d, served under %d", p.ChunkSize, cfg.ChunkSize)
	}
	if p.MPeak != cfg.MPeak {
		return fmt.Errorf("plan M_peak %d, served under %d", p.MPeak, cfg.MPeak)
	}
	return p.Validate(g, caps, cfg)
}

// checkSamePlan compares a served plan's wire bytes with an independent
// computation's.
func checkSamePlan(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served plan (%d bytes) differs from the independent solve (%d bytes)", len(got), len(want))
	}
	return nil
}

// checkSimFloor rejects a simulated latency shorter than the fused graph's
// serial kernel time: the executor runs every kernel on one compute queue,
// so no plan can finish sooner.
func checkSimFloor(simMS, floorMS float64) error {
	if !(simMS >= floorMS) {
		return fmt.Errorf("simulated latency %.3f ms below the kernel-time floor %.3f ms", simMS, floorMS)
	}
	return nil
}

// wirePlan returns a plan as it appears inside a /plan or /replan
// response: the library encoding, compacted the way the server's JSON
// encoder compacts its json.RawMessage.
func wirePlan(p *opg.Plan) ([]byte, error) {
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		return nil, fmt.Errorf("encode plan: %w", err)
	}
	return json.Marshal(json.RawMessage(buf.Bytes()))
}

var planField = []byte(`,"plan":`)

// splitResponse splits a /plan or /replan success body into its header
// fields and the plan, which the server encodes last.
func splitResponse(body []byte) (head, plan []byte, err error) {
	i := bytes.LastIndex(body, planField)
	if i < 0 || !bytes.HasSuffix(body, []byte("}\n")) {
		return nil, nil, errors.New("response has no trailing plan field")
	}
	return body[:i], body[i+len(planField) : len(body)-2], nil
}

// hasField reports whether a response header carries "name":"value".
func hasField(head []byte, name, value string) bool {
	return bytes.Contains(head, []byte(`"`+name+`":"`+value+`"`))
}

// decodeWire decodes a plan from its wire bytes.
func decodeWire(wire []byte) (*opg.Plan, error) {
	return opg.Decode(bytes.NewReader(wire))
}
