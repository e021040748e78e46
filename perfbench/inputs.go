package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/units"
)

// Solver budget shared by the server under test and every in-process
// reference computation: opg.DefaultConfig with a per-window wall clock
// that never binds and a branch budget that does (the CI sweep idiom), so
// the work done and the plans produced are fixed for a given build.
const (
	solveBudget = 5 * time.Second
	maxBranches = 1500
)

// serverFlags are the flashmem-serve flags that select that budget.
var serverFlags = []string{"-budget", solveBudget.String(), "-branches", fmt.Sprint(maxBranches)}

func solverConfig() opg.Config {
	c := opg.DefaultConfig()
	c.SolveTimeout = solveBudget
	c.MaxBranches = maxBranches
	return c
}

// engine builds the engine flashmem-serve builds per request for a device,
// optionally memoizing into cache.
func engine(dev device.Device, cfg opg.Config, cache core.PlanCache) *core.Engine {
	o := core.DefaultOptions(dev)
	o.Config = cfg
	o.Cache = cache
	return core.NewEngine(o)
}

// cell is one key of the evaluation matrix: a §5.1 device and a Table 6
// model, planned under solverConfig.
type cell struct {
	dev  device.Device
	spec models.Spec
}

func (c cell) String() string { return c.dev.Name + "/" + c.spec.Abbr }

func (c cell) planBody() []byte {
	return []byte(fmt.Sprintf(`{"device":%q,"model":%q}`, c.dev.Name, c.spec.Abbr))
}

// matrix returns the 44 keys every workload uses: four devices × eleven
// models.
func matrix() []cell {
	var cs []cell
	for _, d := range device.All() {
		for _, s := range models.All() {
			cs = append(cs, cell{d, s})
		}
	}
	return cs
}

// newRand returns the benchmark's seeded generator; the same seed yields
// the same key orders and churn sequences.
func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x666c6173686d656d))
}

// keyRounds deals the matrix in rounds, each a fresh seeded permutation of
// the 44 keys, so every whole round requests every key exactly once.
type keyRounds struct {
	r     *rand.Rand
	n     int
	order []int
}

func newKeyRounds(seed uint64, n int) *keyRounds { return &keyRounds{r: newRand(seed), n: n} }

// next returns the key index for operation i (called with i = 0, 1, 2, …).
func (k *keyRounds) next(i int) int {
	if i%k.n == 0 {
		k.order = k.r.Perm(k.n)
	}
	return k.order[i%k.n]
}

// The replan-churn lineages: models whose memory-budget steps replay every
// window, on the primary device and one secondary device. Each lineage
// first sees firstSightMB at nominal temperature.
var (
	churnModels    = []string{"GPTN-S", "ViT", "DeepViT", "Whisper-M", "SAM-2", "DepthA-L"}
	churnDevices   = []device.Device{device.OnePlus12(), device.Pixel8()}
	churnBudgetsMB = []int64{300, 400, 500, 600}
)

const (
	firstSightMB = 500
	hotLevel     = 2 // thermal level of each round's detour
)

type lineage struct {
	dev  device.Device
	spec models.Spec
}

func churnLineages() []lineage {
	var ls []lineage
	for _, d := range churnDevices {
		for _, m := range churnModels {
			ls = append(ls, lineage{d, models.MustByAbbr(m)})
		}
	}
	return ls
}

// churnState is the device condition one /replan is served under.
type churnState struct {
	lin      int
	mpeakMB  int64
	throttle int
}

func (s churnState) config() opg.Config {
	c := solverConfig()
	c.MPeak = units.Bytes(s.mpeakMB) * units.MB
	return c
}

func (s churnState) body(ls []lineage) []byte {
	l := ls[s.lin]
	return []byte(fmt.Sprintf(`{"device":%q,"model":%q,"throttle":%d,"config":{"mpeak_mb":%d}}`,
		l.dev.Name, l.spec.Abbr, s.throttle, s.mpeakMB))
}

// churnGen deals the seeded churn sequence in rounds. In one round every
// lineage walks all four budgets at nominal temperature (four budget
// steps), heats to hotLevel (a thermal transition), walks the other three
// budgets hot (three budget steps), and cools back to a state it already
// visited this round (a thermal return). So every round holds, per
// lineage, seven budget steps and two thermal transitions and visits the
// same eight states; the seed picks the budget orders and how lineages
// interleave.
type churnGen struct {
	r    *rand.Rand
	last []int64 // per lineage, the nominal budget it was last served
}

func newChurnGen(seed uint64, lineages int) *churnGen {
	g := &churnGen{r: newRand(seed ^ 0xc4a9), last: make([]int64, lineages)}
	for i := range g.last {
		g.last[i] = firstSightMB
	}
	return g
}

// budgetOrder returns a seeded permutation of budgets whose first element
// differs from avoid.
func (g *churnGen) budgetOrder(budgets []int64, avoid int64) []int64 {
	p := make([]int64, len(budgets))
	for i, j := range g.r.Perm(len(budgets)) {
		p[i] = budgets[j]
	}
	if p[0] == avoid {
		k := 1 + g.r.IntN(len(p)-1)
		p[0], p[k] = p[k], p[0]
	}
	return p
}

func (g *churnGen) round() []churnState {
	per := make([][]churnState, len(g.last))
	for lin := range per {
		cool := g.budgetOrder(churnBudgetsMB, g.last[lin])
		pivot := cool[len(cool)-1]
		var rest []int64
		for _, b := range churnBudgetsMB {
			if b != pivot {
				rest = append(rest, b)
			}
		}
		hot := g.budgetOrder(rest, -1)
		var seq []churnState
		for _, b := range cool {
			seq = append(seq, churnState{lin, b, 0})
		}
		seq = append(seq, churnState{lin, pivot, hotLevel})
		for _, b := range hot {
			seq = append(seq, churnState{lin, b, hotLevel})
		}
		back := hot[len(hot)-1]
		seq = append(seq, churnState{lin, back, 0})
		g.last[lin] = back
		per[lin] = seq
	}
	// Interleave lineages uniformly at random, keeping each lineage's order.
	total := 0
	for _, s := range per {
		total += len(s)
	}
	out := make([]churnState, 0, total)
	for remaining := total; remaining > 0; remaining-- {
		u := g.r.IntN(remaining)
		for lin := range per {
			if u < len(per[lin]) {
				out = append(out, per[lin][0])
				per[lin] = per[lin][1:]
				break
			}
			u -= len(per[lin])
		}
	}
	return out
}
