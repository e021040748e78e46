package opg

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/profiler"
)

// FuzzPlanDecode: Decode never panics, and every plan it accepts has a
// stable compact encoding — Wire's bytes decode back to a plan with the
// same Wire bytes, and equal Encode's output compacted the way a JSON
// response compacts it. Seeded with encoded zoo plans, in both the
// indented and the compact form, and a few hand-written edge cases. The
// zoo plans are cut to their first and last two weights: a new input that
// widens coverage is minimized before the fuzzer moves on, and minimizing
// a full plan's tens of kilobytes stalls a short fuzzing run.
//
//	go test -run '^$' -fuzz '^FuzzPlanDecode$' -fuzztime 15s ./internal/opg
func FuzzPlanDecode(f *testing.F) {
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	cfg := DefaultConfig()
	cfg.SolveTimeout = 5 * time.Second
	cfg.MaxBranches = 200
	for _, abbr := range []string{"ResNet", "ViT"} {
		plan := Solve(models.MustByAbbr(abbr).Build(), caps, cfg)
		n := len(plan.Weights)
		plan.Weights = append(plan.Weights[:2:2], plan.Weights[n-2:]...)
		var buf bytes.Buffer
		if err := plan.Encode(&buf); err != nil {
			f.Fatalf("%s: encode: %v", abbr, err)
		}
		f.Add(buf.Bytes())
		wire, err := plan.Wire()
		if err != nil {
			f.Fatalf("%s: wire: %v", abbr, err)
		}
		f.Add(wire)
	}
	for _, seed := range []string{
		`{"version":1,"model":"m","chunk_size":1,"m_peak":0,"weights":null}`,
		`{"version":1,"model":"<a>&b","chunk_size":4096,"m_peak":1,"weights":[{"weight":3,"bytes":10,"chunks":2,"preload":true,"load_start":1,"transforms":[{"layer":2,"chunks":1}]}]}`,
		`{"version":1,"chunk_size":0}`,
		`{"version":2,"chunk_size":1}`,
		`{"version":1,"chunk_size":1,"weights":[{"transforms":[]}]} trailing`,
		`[`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		wire, err := p.Wire()
		if err != nil {
			t.Fatalf("wire of an accepted plan: %v", err)
		}
		back, err := Decode(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("decoding the plan's own wire bytes: %v\n%s", err, wire)
		}
		again, err := back.Wire()
		if err != nil {
			t.Fatalf("wire after round trip: %v", err)
		}
		if !bytes.Equal(again, wire) {
			t.Fatalf("wire bytes changed across a decode round trip:\n%s\n%s", wire, again)
		}
		if err := checkWireParity(p); err != nil {
			t.Fatal(err)
		}
	})
}
