package opg

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/profiler"
)

// Plan-stability pin: the plans one SolverVersion produces are fixed.
// Each Table 6 model is solved on the OnePlus 12 analytic capacities under
// a deterministic budget — the 5 s wall clock never binds, the 1500-branch
// budget does, so some windows end FEASIBLE rather than OPTIMAL — and the
// sha256 of its wire encoding must equal the digest recorded for the
// current SolverVersion. A change that moves any plan must bump
// SolverVersion (so plan caches stop serving the old generation) and
// record the new digests here; a bump that leaves plans alone re-labels
// the same digests.
//
// Branches and Conflicts are pinned beside each digest: a solver change
// that keeps the plans but moves the search (learning, clause-database
// reduction, minimization) shows up here even when the digests hold. The
// four large models reach thousands of conflicts, where those mechanisms
// actually run.

// pinnedVersion is the SolverVersion pinnedPlans belongs to. The lc-opg-6
// digests are the lc-opg-5 ones unchanged: the bump changed the plan-key
// format, not the plans.
const pinnedVersion = "lc-opg-6"

// pinnedPlan is one model's pinned solve: the sha256 of Plan.Encode and
// the search counters that produced it. Each pinned plan's compact
// encoding (Plan.Wire) must also equal Encode's output compacted the way a
// JSON response compacts it.
type pinnedPlan struct {
	abbr      string
	digest    string
	branches  int64
	conflicts int64
	large     bool // skipped under -short
}

// pinnedPlans fixes the solve and report order.
var pinnedPlans = []pinnedPlan{
	{"GPTN-S", "68b81d7dfaf9c3394caedd4a2896b9500cb7ee40355d00dbda7588206257bfad", 1263, 112, false},
	{"GPTN-1.3B", "b75fd1d3bdf004a724ebc85c50c45d82a1e1dd18c4ce893573302c7b13bf2a80", 30025, 10124, true},
	{"GPTN-2.7B", "59b572cbefaff1c1077a5930494ee5d7021eb78dade16961d85cade3b530763c", 39000, 17745, true},
	{"ResNet", "1183aa285dcf78f0666dcdf19cb1a712f27e16ac5bac022e1e68c61767b5684a", 1907, 434, false},
	{"SAM-2", "9a3505ce06a82af8553eea043d40a88138cce8437ea6435088a51a3f7e377661", 8564, 1425, false},
	{"ViT", "717fd7142e8ce959d4172e2a4df90c1689b9ef9a750acf2617bf2eff855994e4", 1447, 128, false},
	{"DeepViT", "621d664fcfd3ef082ac1b7679f982f2b0e12b0565731becc5cf7bac9c75293cf", 2903, 254, false},
	{"SD-UNet", "c7aa895c3c03ca687860f64cab1eea5bb35c532a3a3faa22c5d3136670f655d3", 27168, 9218, true},
	{"Whisper-M", "14f29061c70749ae83c1288de509e08760441905045b716de4d72fffda394c61", 21130, 7377, true},
	{"DepthA-S", "4fb2efc1cd0fbaccbdd2c21fdfe35418cb26ba6ca825aabff607aea1ac6065d0", 1331, 41, false},
	{"DepthA-L", "67e2b832c826aa9231c2187547a85caf2f68b54838e530863746e7ec24135e7c", 7120, 1852, false},
}

func TestPlanStabilityPin(t *testing.T) {
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	cfg := DefaultConfig()
	cfg.SolveTimeout = 5 * time.Second
	cfg.MaxBranches = 1500

	var table strings.Builder
	var moved []string
	var last *Plan
	for _, pin := range pinnedPlans {
		if pin.large && testing.Short() {
			continue
		}
		plan := Solve(models.MustByAbbr(pin.abbr).Build(), caps, cfg)
		var buf bytes.Buffer
		if err := plan.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", pin.abbr, err)
		}
		if err := checkWireParity(plan); err != nil {
			t.Errorf("%s: %v", pin.abbr, err)
		}
		last = plan
		sum := sha256.Sum256(buf.Bytes())
		got := pinnedPlan{
			abbr:      pin.abbr,
			digest:    hex.EncodeToString(sum[:]),
			branches:  plan.Stats.Branches,
			conflicts: plan.Stats.Conflicts,
			large:     pin.large,
		}
		fmt.Fprintf(&table, "\t{%s, %q, %d, %d, %v},\n",
			strconv.Quote(got.abbr), got.digest, got.branches, got.conflicts, got.large)
		if got != pin {
			moved = append(moved, pin.abbr)
		}
	}
	// A model name with HTML-special characters pins that both encodings
	// escape them alike (encoding/json escapes <, > and & by default).
	html := last.Clone()
	html.Model = `<ViT> & "co"`
	if err := checkWireParity(html); err != nil {
		t.Errorf("HTML-escaped model name: %v", err)
	}

	if SolverVersion != pinnedVersion {
		t.Fatalf("SolverVersion is %q but the pinned digests belong to %q: record the digests for the new version:\n%s",
			SolverVersion, pinnedVersion, table.String())
	}
	if len(moved) > 0 {
		t.Fatalf("plans or search counters of %v changed under SolverVersion %q: a moved digest needs a SolverVersion bump; record the new pins:\n%s",
			moved, SolverVersion, table.String())
	}
}

// compacted returns Encode's output compacted the way encoding/json
// compacts a json.RawMessage inside a response: the bytes /plan and
// /replan served before Plan.Wire existed.
func compacted(p *Plan) ([]byte, error) {
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		return nil, err
	}
	return json.Marshal(json.RawMessage(buf.Bytes()))
}

// checkWireParity requires Plan.Wire to equal the compacted Encode.
func checkWireParity(p *Plan) error {
	want, err := compacted(p)
	if err != nil {
		return fmt.Errorf("compacted encode: %w", err)
	}
	got, err := p.Wire()
	if err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("Wire (%d bytes) differs from the compacted Encode (%d bytes)", len(got), len(want))
	}
	return nil
}
