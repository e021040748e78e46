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
// Each model below is solved on the OnePlus 12 analytic capacities under
// a deterministic budget — the 5 s wall clock never binds, the 1500-branch
// budget does, so some windows end FEASIBLE rather than OPTIMAL — and the
// sha256 of its wire encoding must equal the digest recorded for the
// current SolverVersion. A change that moves any plan must bump
// SolverVersion (so plan caches stop serving the old generation) and
// record the new digests here; a bump that leaves plans alone re-labels
// the same digests.

// pinnedVersion is the SolverVersion pinnedPlans belongs to. The lc-opg-6
// digests are the lc-opg-5 ones unchanged: the bump changed the plan-key
// format, not the plans.
const pinnedVersion = "lc-opg-6"

// pinnedPlans maps a model abbreviation to the sha256 of Plan.Encode. Each
// pinned plan's compact encoding (Plan.Wire) must also equal Encode's
// output compacted the way a JSON response compacts it.
var pinnedPlans = map[string]string{
	"GPTN-S":   "68b81d7dfaf9c3394caedd4a2896b9500cb7ee40355d00dbda7588206257bfad",
	"ResNet":   "1183aa285dcf78f0666dcdf19cb1a712f27e16ac5bac022e1e68c61767b5684a",
	"SAM-2":    "9a3505ce06a82af8553eea043d40a88138cce8437ea6435088a51a3f7e377661",
	"ViT":      "717fd7142e8ce959d4172e2a4df90c1689b9ef9a750acf2617bf2eff855994e4",
	"DeepViT":  "621d664fcfd3ef082ac1b7679f982f2b0e12b0565731becc5cf7bac9c75293cf",
	"DepthA-S": "4fb2efc1cd0fbaccbdd2c21fdfe35418cb26ba6ca825aabff607aea1ac6065d0",
	"DepthA-L": "67e2b832c826aa9231c2187547a85caf2f68b54838e530863746e7ec24135e7c",
}

// pinnedOrder fixes the solve and report order.
var pinnedOrder = []string{"GPTN-S", "ResNet", "SAM-2", "ViT", "DeepViT", "DepthA-S", "DepthA-L"}

func TestPlanStabilityPin(t *testing.T) {
	caps := profiler.AnalyticCapacityFunc(device.OnePlus12())
	cfg := DefaultConfig()
	cfg.SolveTimeout = 5 * time.Second
	cfg.MaxBranches = 1500

	var table strings.Builder
	var moved []string
	var last *Plan
	for _, abbr := range pinnedOrder {
		plan := Solve(models.MustByAbbr(abbr).Build(), caps, cfg)
		var buf bytes.Buffer
		if err := plan.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", abbr, err)
		}
		if err := checkWireParity(plan); err != nil {
			t.Errorf("%s: %v", abbr, err)
		}
		last = plan
		sum := sha256.Sum256(buf.Bytes())
		got := hex.EncodeToString(sum[:])
		fmt.Fprintf(&table, "\t%-11s %q,\n", strconv.Quote(abbr)+":", got)
		if got != pinnedPlans[abbr] {
			moved = append(moved, abbr)
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
		t.Fatalf("plans of %v changed under SolverVersion %q: bump SolverVersion and record the digests again:\n%s",
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
