package experiments

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/cpsat"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/opg"
	"repro/internal/power"
	"repro/internal/profiler"
	"repro/internal/units"
)

// --- Table 1: motivation — preloading cost under MNN ---

// Table1Row is one model's memory and latency under MNN preloading.
type Table1Row struct {
	Model   string
	ParamsM float64
	PeakMB  float64
	AvgMB   float64
	LoadMS  float64
	TransMS float64
	InferMS float64
}

// table1Cells enumerates the Table 1 model set.
func table1Cells(*Runner) []string { return []string{"Whisper-M", "GPTN-S", "SD-UNet"} }

// table1Cell measures one model under MNN preloading.
func (r *Runner) table1Cell(abbr string) (Table1Row, error) {
	mnn := baselines.MNN()
	g := r.Graph(abbr)
	br := r.Baseline(mnn, abbr)
	if br.err != nil {
		return Table1Row{}, br.err
	}
	load := units.Duration(float64(r.Cfg.Device.DiskBW.Time(g.TotalWeightBytes())) * mnn.LoadFactor)
	return Table1Row{
		Model:   abbr,
		ParamsM: float64(g.Params()) / 1e6,
		PeakMB:  br.report.Mem.Peak.MiB(),
		AvgMB:   br.report.Mem.Average.MiB(),
		LoadMS:  load.Milliseconds(),
		TransMS: (br.report.Init - load).Milliseconds(),
		InferMS: br.report.Exec.Milliseconds(),
	}, nil
}

// Table1 reproduces the Table 1 motivation study: Whisper, GPT-Neo and
// SD-UNet under MNN's weight preloading on the primary device.
func (r *Runner) Table1() ([]Table1Row, error) {
	return parallel(r, table1Cells(r), r.table1Cell)
}

// RenderTable1 formats Table 1 rows.
func RenderTable1(rows []Table1Row) string {
	t := metrics.NewTable("Model", "Params(M)", "Peak(MB)", "Avg(MB)", "Load(ms)", "Trans(ms)", "Infer(ms)")
	for _, r := range rows {
		t.Row(r.Model, fmt.Sprintf("%.0f", r.ParamsM),
			fmt.Sprintf("%.0f", r.PeakMB), fmt.Sprintf("%.0f", r.AvgMB),
			fmt.Sprintf("%.0f", r.LoadMS), fmt.Sprintf("%.0f", r.TransMS), fmt.Sprintf("%.0f", r.InferMS))
	}
	return "Table 1: memory usage and latency under MNN preloading\n" + t.String()
}

// --- Table 4: LC-OPG solver runtime breakdown ---

// Table4Row is one model's solver runtime breakdown. Branches, Wakes and
// Trail expose the CP engine's work — search nodes, constraint activations,
// and trailed bound changes — so solver-speed changes show up as falling
// counters, not just wall-clock deltas.
type Table4Row struct {
	Model    string
	ProcessS float64
	BuildS   float64
	SolveS   float64
	Status   cpsat.Status
	Windows  int
	Branches int64
	Wakes    int64
	Trail    int64
	Nogoods  int64 // learned CP nogoods across window solves
	Restarts int64 // CP Luby restarts across window solves

	// CDCL analysis counters.
	Conflicts int64 // conflicts analyzed by the 1-UIP engine
	Backjumps int64 // non-chronological backjumps (≥1 intact level skipped)
	MinLits   int64 // literals removed by self-subsumption minimization

	Spec     int // windows committed from accepted speculation
	Recommit int // windows re-solved after failed speculation

	Overlap float64 // streamed weight fraction of the resulting plan
}

// table4Cells enumerates the Table 4 model set.
func table4Cells(*Runner) []models.Spec { return models.Table4Set() }

// table4Cell solves one model and reports the solver breakdown.
func (r *Runner) table4Cell(spec models.Spec) (Table4Row, error) {
	caps := profiler.AnalyticCapacityFunc(r.Cfg.Device)
	cfg := r.solveConfig()
	g := spec.Build()
	// Adaptive peak-memory control (Table 3): billion-parameter models
	// get a proportionally larger in-flight budget.
	plan := opg.Solve(g, caps, opg.AdaptMPeak(cfg, g))
	st := plan.Stats
	return Table4Row{
		Model:     spec.Abbr,
		ProcessS:  st.ProcessTime.Seconds(),
		BuildS:    st.BuildTime.Seconds(),
		SolveS:    st.SolveTime.Seconds(),
		Status:    st.Status,
		Windows:   st.Windows,
		Branches:  st.Branches,
		Wakes:     st.Wakes,
		Trail:     st.TrailOps,
		Nogoods:   st.Nogoods,
		Restarts:  st.Restarts,
		Conflicts: st.Conflicts,
		Backjumps: st.Backjumps,
		MinLits:   st.MinimizedLits,
		Spec:      st.Speculative,
		Recommit:  st.Recommitted,
		Overlap:   plan.OverlapFraction(),
	}, nil
}

// Table4 reproduces the solver execution-time breakdown on the Table 4
// model set (GPT-Neo family, ViT-8B, Llama2-13B/70B).
func (r *Runner) Table4() []Table4Row {
	rows, err := parallel(r, table4Cells(r), r.table4Cell)
	if err != nil {
		// Cells only fail by panicking (solver bugs); zero-filled rows in a
		// published-style table would be silently wrong, so fail loudly like
		// the old serial loop did.
		panic(err)
	}
	return rows
}

// RenderTable4 formats Table 4 rows. The Spec/Recommit columns are
// the speculative pipeline's scheduling diagnostics: deliberately absent
// from the table (they vary run to run, and sharded CI diffs rendered output
// byte-for-byte), they are still carried on the row for programmatic use.
// Conflicts/Backjumps/MinLits ARE rendered: like Branches, they cover only
// committed solves and so match a sequential run exactly.
func RenderTable4(rows []Table4Row) string {
	t := metrics.NewTable("Model", "Process(s)", "Build(s)", "Solve(s)", "Status", "Windows", "Branches", "Wakes(k)", "Trail(k)", "Nogoods", "Restarts", "Conflicts", "Backjumps", "MinLits", "Overlap")
	for _, r := range rows {
		t.Row(r.Model, fmt.Sprintf("%.3f", r.ProcessS), fmt.Sprintf("%.3f", r.BuildS),
			fmt.Sprintf("%.2f", r.SolveS), r.Status.String(),
			fmt.Sprintf("%d", r.Windows), fmt.Sprintf("%d", r.Branches),
			fmt.Sprintf("%d", r.Wakes/1000), fmt.Sprintf("%d", r.Trail/1000),
			fmt.Sprintf("%d", r.Nogoods), fmt.Sprintf("%d", r.Restarts),
			fmt.Sprintf("%d", r.Conflicts), fmt.Sprintf("%d", r.Backjumps),
			fmt.Sprintf("%d", r.MinLits),
			fmt.Sprintf("%.0f%%", r.Overlap*100))
	}
	return "Table 4: LC-OPG solver execution-time breakdown\n" + t.String()
}

// --- Table 6: model characterization ---

// Table6Row is one model's measured characteristics.
type Table6Row struct {
	Model, Abbr, Input, Task string
	ParamsM                  float64
	MACsG                    float64
	Layers                   int
}

// modelCells enumerates the configured model set — shared by every
// experiment whose cells are exactly the Table 6 models.
func modelCells(r *Runner) []models.Spec { return r.Cfg.modelSet() }

// table6Cell characterizes one model from its builder.
func (r *Runner) table6Cell(spec models.Spec) (Table6Row, error) {
	g := r.Graph(spec.Abbr)
	return Table6Row{
		Model: spec.Name, Abbr: spec.Abbr, Input: spec.InputType, Task: spec.Task,
		ParamsM: float64(g.Params()) / 1e6,
		MACsG:   g.TotalMACs().GigaMACs(),
		Layers:  g.Len(),
	}, nil
}

// Table6 regenerates the model characterization table from the builders.
func (r *Runner) Table6() []Table6Row {
	rows, err := parallel(r, modelCells(r), r.table6Cell)
	if err != nil {
		panic(err) // cells only fail by panicking (e.g. unknown model)
	}
	return rows
}

// RenderTable6 formats Table 6 rows.
func RenderTable6(rows []Table6Row) string {
	t := metrics.NewTable("Model", "Abbr", "Input", "Task", "Params(M)", "MACs(G)", "Layers")
	for _, r := range rows {
		t.Row(r.Model, r.Abbr, r.Input, r.Task,
			fmt.Sprintf("%.1f", r.ParamsM), fmt.Sprintf("%.1f", r.MACsG), fmt.Sprintf("%d", r.Layers))
	}
	return "Table 6: model characterization\n" + t.String()
}

// --- Table 7: end-to-end latency ---

// Cell is one framework's latency on one model ("–" when unsupported).
type Cell struct {
	Supported bool
	Reason    string
	InitMS    float64
	ExecMS    float64
}

// Integrated returns init + exec in ms.
func (c Cell) Integrated() float64 { return c.InitMS + c.ExecMS }

// Table7Row is one model's end-to-end latency comparison.
type Table7Row struct {
	Model         string
	Baselines     map[string]Cell // framework name → cell
	OursMS        float64
	SpeedupSMem   float64 // over SmartMem
	SpeedupOthers float64 // geomean over the other supported frameworks
}

// Table7Result carries rows and the per-framework geomean speedups.
type Table7Result struct {
	Rows     []Table7Row
	Geomeans map[string]float64 // framework → geomean speedup over FlashMem
}

// table7Cell runs one model's FlashMem run plus every baseline.
func (r *Runner) table7Cell(spec models.Spec) (Table7Row, error) {
	fr, err := r.Flash(spec.Abbr)
	if err != nil {
		return Table7Row{}, err
	}
	row := Table7Row{
		Model:     spec.Abbr,
		Baselines: map[string]Cell{},
		OursMS:    fr.report.Integrated.Milliseconds(),
	}
	var others []float64
	for _, f := range baselines.All() {
		br := r.Baseline(f, spec.Abbr)
		if br.err != nil {
			row.Baselines[f.Name] = Cell{Supported: false, Reason: br.err.Error()}
			continue
		}
		cell := Cell{
			Supported: true,
			InitMS:    br.report.Init.Milliseconds(),
			ExecMS:    br.report.Exec.Milliseconds(),
		}
		row.Baselines[f.Name] = cell
		speedup := cell.Integrated() / row.OursMS
		if f.Name == "SmartMem" {
			row.SpeedupSMem = speedup
		} else {
			others = append(others, speedup)
		}
	}
	row.SpeedupOthers = metrics.GeoMean(others)
	return row, nil
}

// table7Aggregate folds ordered per-model rows into the final result with
// per-framework geomeans.
func table7Aggregate(rows []Table7Row) *Table7Result {
	res := &Table7Result{Rows: rows, Geomeans: map[string]float64{}}
	perFramework := map[string][]float64{}
	for _, row := range rows {
		for name, cell := range row.Baselines {
			if cell.Supported {
				perFramework[name] = append(perFramework[name], cell.Integrated()/row.OursMS)
			}
		}
	}
	for name, sp := range perFramework {
		res.Geomeans[name] = metrics.GeoMean(sp)
	}
	return res
}

// Table7 reproduces the overall latency comparison. Each model's cell —
// the FlashMem run plus every baseline — is one parallel sweep unit; the
// geomean aggregation happens serially over the ordered rows.
func (r *Runner) Table7() (*Table7Result, error) {
	rows, err := parallel(r, modelCells(r), r.table7Cell)
	if err != nil {
		return nil, err
	}
	return table7Aggregate(rows), nil
}

// RenderTable7 formats the latency comparison.
func RenderTable7(res *Table7Result) string {
	names := frameworkNames()
	header := []string{"Model"}
	for _, n := range names {
		header = append(header, n+" Init", n+" Exec")
	}
	header = append(header, "Ours(ms)", "Spd/SMem", "Spd/Others")
	t := metrics.NewTable(header...)
	for _, row := range res.Rows {
		cells := []string{row.Model}
		for _, n := range names {
			c := row.Baselines[n]
			if !c.Supported {
				cells = append(cells, "–", "–")
			} else {
				cells = append(cells, fmt.Sprintf("%.0f", c.InitMS), fmt.Sprintf("%.0f", c.ExecMS))
			}
		}
		cells = append(cells, fmt.Sprintf("%.0f", row.OursMS),
			metrics.Ratio(row.SpeedupSMem), metrics.Ratio(row.SpeedupOthers))
		t.Row(cells...)
	}
	geo := []string{"Geo-Mean"}
	for _, n := range names {
		geo = append(geo, metrics.Ratio(res.Geomeans[n]), "")
	}
	geo = append(geo, "1.0x", "", "")
	t.Row(geo...)
	return "Table 7: overall latency comparison (ms)\n" + t.String()
}

// --- Table 8: average memory ---

// Table8Row is one model's memory comparison in MB.
type Table8Row struct {
	Model     string
	Baselines map[string]float64 // framework → avg MB (absent = unsupported)
	OursMB    float64
	MemReDT   float64 // reduction over SmartMem
}

// Table8Result carries rows and per-framework geomean reductions.
type Table8Result struct {
	Rows     []Table8Row
	Geomeans map[string]float64
}

// table8Cell runs one model's memory comparison.
func (r *Runner) table8Cell(spec models.Spec) (Table8Row, error) {
	fr, err := r.Flash(spec.Abbr)
	if err != nil {
		return Table8Row{}, err
	}
	row := Table8Row{
		Model:     spec.Abbr,
		Baselines: map[string]float64{},
		OursMB:    fr.report.Mem.Average.MiB(),
	}
	for _, f := range baselines.All() {
		br := r.Baseline(f, spec.Abbr)
		if br.err != nil {
			continue
		}
		avg := br.report.Mem.Average.MiB()
		row.Baselines[f.Name] = avg
		if f.Name == "SmartMem" {
			row.MemReDT = avg / row.OursMB
		}
	}
	return row, nil
}

// table8Aggregate folds ordered rows into the final result.
func table8Aggregate(rows []Table8Row) *Table8Result {
	res := &Table8Result{Rows: rows, Geomeans: map[string]float64{}}
	perFramework := map[string][]float64{}
	for _, row := range rows {
		for name, mb := range row.Baselines {
			perFramework[name] = append(perFramework[name], mb/row.OursMB)
		}
	}
	for name, v := range perFramework {
		res.Geomeans[name] = metrics.GeoMean(v)
	}
	return res
}

// Table8 reproduces the overall memory comparison.
func (r *Runner) Table8() (*Table8Result, error) {
	rows, err := parallel(r, modelCells(r), r.table8Cell)
	if err != nil {
		return nil, err
	}
	return table8Aggregate(rows), nil
}

// RenderTable8 formats the memory comparison.
func RenderTable8(res *Table8Result) string {
	names := frameworkNames()
	header := append([]string{"Model"}, names...)
	header = append(header, "Ours(MB)", "Mem-ReDT")
	t := metrics.NewTable(header...)
	for _, row := range res.Rows {
		cells := []string{row.Model}
		for _, n := range names {
			if v, ok := row.Baselines[n]; ok {
				cells = append(cells, fmt.Sprintf("%.0f", v))
			} else {
				cells = append(cells, "–")
			}
		}
		cells = append(cells, fmt.Sprintf("%.0f", row.OursMB), metrics.Ratio(row.MemReDT))
		t.Row(cells...)
	}
	geo := []string{"Geo-Mean"}
	for _, n := range names {
		geo = append(geo, metrics.Ratio(res.Geomeans[n]))
	}
	geo = append(geo, "1.0x", "")
	t.Row(geo...)
	return "Table 8: average memory comparison (MB)\n" + t.String()
}

// --- Table 9: power and energy ---

// Table9Cell is one framework × model power/energy measurement.
type Table9Cell struct {
	Supported bool
	PowerW    float64
	EnergyJ   float64
}

// Table9Row is one framework's row across the two models.
type Table9Row struct {
	Framework string
	DeepViT   Table9Cell
	SDUNet    Table9Cell
}

// table9Cells enumerates the compared frameworks; FlashMem rides along as
// a pseudo-framework.
func table9Cells(*Runner) []string {
	return []string{"MNN", "LiteRT", "ExecuTorch", "SmartMem", "FlashMem"}
}

// table9Cell measures one framework's power/energy on the two models.
func (r *Runner) table9Cell(name string) (Table9Row, error) {
	pm := power.Default()
	row := Table9Row{Framework: name}
	for _, abbr := range []string{"DeepViT", "SD-UNet"} {
		var cell Table9Cell
		if name == "FlashMem" {
			fr, err := r.Flash(abbr)
			if err != nil {
				return Table9Row{}, err
			}
			u := pm.Measure(fr.machine, fr.report.Integrated)
			cell = Table9Cell{Supported: true, PowerW: u.AveragePowerW, EnergyJ: u.EnergyJ}
		} else {
			f, _ := baselines.ByName(name)
			br := r.Baseline(f, abbr)
			if br.err != nil {
				continue
			}
			u := pm.Measure(br.machine, br.report.Init+br.report.Exec)
			cell = Table9Cell{Supported: true, PowerW: u.AveragePowerW, EnergyJ: u.EnergyJ}
		}
		if abbr == "DeepViT" {
			row.DeepViT = cell
		} else {
			row.SDUNet = cell
		}
	}
	return row, nil
}

// Table9 reproduces the power/energy comparison on DeepViT and SD-UNet.
func (r *Runner) Table9() ([]Table9Row, error) {
	return parallel(r, table9Cells(r), r.table9Cell)
}

// RenderTable9 formats the power/energy comparison.
func RenderTable9(rows []Table9Row) string {
	t := metrics.NewTable("Framework", "DeepViT P(W)", "DeepViT E(J)", "SD-UNet P(W)", "SD-UNet E(J)")
	cell := func(c Table9Cell, energy bool) string {
		if !c.Supported {
			return "–"
		}
		if energy {
			return fmt.Sprintf("%.1f", c.EnergyJ)
		}
		return fmt.Sprintf("%.1f", c.PowerW)
	}
	for _, r := range rows {
		t.Row(r.Framework, cell(r.DeepViT, false), cell(r.DeepViT, true),
			cell(r.SDUNet, false), cell(r.SDUNet, true))
	}
	return "Table 9: power and energy comparison\n" + t.String()
}

// frameworkNames returns the Table 7/8 column order.
func frameworkNames() []string {
	return []string{"MNN", "NCNN", "TVM", "LiteRT", "ExecuTorch", "SmartMem"}
}

// withBudget copies a config with a different solver budget — the CLI's
// paper-fidelity mode (150 s limit).
func (c Config) withBudget(timeout time.Duration, branches int64) Config {
	c.SolveTimeout = timeout
	c.MaxBranches = branches
	return c
}
