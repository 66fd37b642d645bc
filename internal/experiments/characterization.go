package experiments

import (
	"fmt"

	"lukewarm/internal/cpu"
	"lukewarm/internal/mem"
	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
	"lukewarm/internal/topdown"
	"lukewarm/internal/workload"
)

// Fig1Row is one IAT point of the Fig. 1 sweep.
type Fig1Row struct {
	IATms float64
	// NormCPI maps function name to CPI normalized to back-to-back
	// invocations (100% = fully warm).
	NormCPI map[string]float64
}

// Fig1Result is the Fig. 1 reproduction: CPI vs. invocation inter-arrival
// time for an authentication function in Python and an AES function in
// NodeJS, on the characterization host at ~50% ambient load.
type Fig1Result struct {
	Functions []string
	Rows      []Fig1Row
}

// fig1Job is one (function, IAT) point of Fig. 1: back-to-back warm-up,
// then measured invocations that each follow an idle gap of iatMs.
type fig1Job struct {
	runner.Cell
	iatMs float64
}

func (j fig1Job) Label() string { return fmt.Sprintf("%s/iat=%gms", j.Workload, j.iatMs) }

func (j fig1Job) Run() (measured, error) {
	srv, inst, err := j.Deploy()
	if err != nil {
		return measured{}, err
	}
	srv.RunReference(inst, j.Warmup+1)
	return runner.MeasureWindow(srv, inst, j.Measure, func() cpu.RunResult {
		srv.AdvanceIAT(j.iatMs)
		return srv.Invoke(inst)
	}, j.Audit)
}

// Fig1 runs the IAT sweep. Every (function, IAT) point is one job: the
// point's server warms up, idles for the gap, and measures independently of
// every other point, so the sweep parallelizes fully.
func Fig1(opt Options) (Fig1Result, error) {
	opt = opt.withDefaults()
	fns := opt.Functions
	if len(fns) == 0 {
		fns = []string{"Auth-P", "AES-N"}
	}
	iats := []float64{0, 1, 10, 100, 1000, 10000}
	res := Fig1Result{Functions: fns}
	rows := make([]Fig1Row, len(iats))
	for i, iat := range iats {
		rows[i] = Fig1Row{IATms: iat, NormCPI: map[string]float64{}}
	}

	var jobs []fig1Job
	for _, name := range fns {
		if _, err := suiteByName(name); err != nil {
			return res, err
		}
		for _, iat := range iats {
			jobs = append(jobs, fig1Job{opt.cell(name, cpu.CharacterizationConfig(), nil, false, reference), iat})
		}
	}
	ms, err := runner.Run(opt.engine(), jobs)
	if err != nil {
		return res, err
	}
	for fi, name := range fns {
		base := ms[fi*len(iats)].CPI()
		for i := range iats {
			rows[i].NormCPI[name] = stats.Pct(ms[fi*len(iats)+i].CPI(), base)
		}
	}
	res.Rows = rows
	return res, nil
}

// Table renders the sweep.
func (r Fig1Result) Table() *stats.Table {
	hdr := append([]string{"IAT [ms]"}, r.Functions...)
	t := stats.NewTable("Figure 1: normalized CPI vs. inter-arrival time (100% = back-to-back)", hdr...)
	for _, row := range r.Rows {
		cells := []string{fmt.Sprintf("%.0f", row.IATms)}
		for _, fn := range r.Functions {
			cells = append(cells, fmt.Sprintf("%.0f%%", row.NormCPI[fn]))
		}
		t.AddRow(cells...)
	}
	return t
}

// CharRow is one function's characterization measurements: reference and
// interleaved runs on the characterization host.
type CharRow struct {
	Name        string
	Lang        workload.Lang
	Ref         measuredView
	Interleaved measuredView
}

// measuredView exposes the per-run numbers the characterization figures
// plot.
type measuredView struct {
	CPI            float64
	Stack          topdown.Stack
	L2MPKIInstr    float64
	L2MPKIData     float64
	LLCMPKIInstr   float64
	LLCMPKIData    float64
	MispredictRate float64
}

func view(m measured) measuredView {
	return measuredView{
		CPI:          m.CPI(),
		Stack:        m.Stack,
		L2MPKIInstr:  m.MPKI(m.L2, mem.Instr),
		L2MPKIData:   m.MPKI(m.L2, mem.Data),
		LLCMPKIInstr: m.MPKI(m.LLC, mem.Instr),
		LLCMPKIData:  m.MPKI(m.LLC, mem.Data),
	}
}

// CharacterizationResult backs Figs. 2-5: the Top-Down and MPKI data for
// every function in both regimes.
type CharacterizationResult struct {
	Rows []CharRow
}

// Characterize runs the Sec. 2.3-2.4 study: every function measured in the
// reference (back-to-back) and interleaved (stressor/flush) configurations
// on the Broadwell characterization host.
func Characterize(opt Options) (CharacterizationResult, error) {
	opt = opt.withDefaults()
	cfg := cpu.CharacterizationConfig()
	var out CharacterizationResult
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	var cells []runner.Cell
	for _, w := range suite {
		cells = append(cells,
			opt.cell(w.Name, cfg, nil, false, reference),
			opt.cell(w.Name, cfg, nil, false, lukewarm))
	}
	ms, err := opt.engine().Measure(cells)
	if err != nil {
		return out, err
	}
	for i, w := range suite {
		out.Rows = append(out.Rows, CharRow{
			Name: w.Name, Lang: w.Lang,
			Ref:         view(ms[2*i]),
			Interleaved: view(ms[2*i+1]),
		})
	}
	return out, nil
}

// MeanUplift reports the average interleaved/reference CPI ratio minus one
// (the paper's headline 70% average, range 31-114%).
func (r CharacterizationResult) MeanUplift() float64 {
	var s stats.Summary
	for _, row := range r.Rows {
		s.Add(row.Interleaved.CPI/row.Ref.CPI - 1)
	}
	return s.Mean()
}

// Fig2Table renders the Top-Down CPI stacks (Fig. 2): striped (here "ref")
// vs solid ("int") per category.
func (r CharacterizationResult) Fig2Table() *stats.Table {
	t := stats.NewTable("Figure 2: Top-Down CPI stacks (reference vs interleaved)",
		"Function", "Cfg", "CPI", "Retiring", "Frontend", "BadSpec", "Backend", "CPI stack")
	add := func(name, cfg string, v measuredView) {
		st := v.Stack
		fe := st.CPIOf(topdown.FetchLatency) + st.CPIOf(topdown.FetchBandwidth)
		segs := []float64{st.CPIOf(topdown.Retiring), fe,
			st.CPIOf(topdown.BadSpeculation), st.CPIOf(topdown.BackendBound)}
		t.AddRow(name, cfg,
			fmt.Sprintf("%.2f", v.CPI),
			fmt.Sprintf("%.2f", segs[0]),
			fmt.Sprintf("%.2f", segs[1]),
			fmt.Sprintf("%.2f", segs[2]),
			fmt.Sprintf("%.2f", segs[3]),
			stats.StackedBar(segs, []rune{'R', 'F', 'S', 'B'}, 5, 40))
	}
	var refMean, intMean topdown.Stack
	for _, row := range r.Rows {
		add(row.Name, "ref", row.Ref)
		add(row.Name, "int", row.Interleaved)
		refMean.Merge(row.Ref.Stack)
		intMean.Merge(row.Interleaved.Stack)
	}
	add("Mean", "ref", measuredView{CPI: refMean.CPI(), Stack: refMean})
	add("Mean", "int", measuredView{CPI: intMean.CPI(), Stack: intMean})
	return t
}

// Fig3Table renders the front-end stall split (Fig. 3): fetch latency vs
// fetch bandwidth, reference vs interleaved, normalized to the reference
// front-end portion.
func (r CharacterizationResult) Fig3Table() *stats.Table {
	t := stats.NewTable("Figure 3: front-end stalls, fetch latency vs bandwidth (normalized to reference front-end)",
		"Function", "RefLat", "RefBW", "IntLat", "IntBW", "Lat growth", "BW growth")
	var latG, bwG stats.Summary
	for _, row := range r.Rows {
		refLat := row.Ref.Stack.CPIOf(topdown.FetchLatency)
		refBW := row.Ref.Stack.CPIOf(topdown.FetchBandwidth)
		intLat := row.Interleaved.Stack.CPIOf(topdown.FetchLatency)
		intBW := row.Interleaved.Stack.CPIOf(topdown.FetchBandwidth)
		lg := stats.Pct(intLat-refLat, refLat)
		bg := stats.Pct(intBW-refBW, refBW)
		latG.Add(lg)
		bwG.Add(bg)
		t.AddRow(row.Name,
			fmt.Sprintf("%.3f", refLat), fmt.Sprintf("%.3f", refBW),
			fmt.Sprintf("%.3f", intLat), fmt.Sprintf("%.3f", intBW),
			fmt.Sprintf("%+.0f%%", lg), fmt.Sprintf("%+.0f%%", bg))
	}
	t.AddRow("Mean", "", "", "", "",
		fmt.Sprintf("%+.0f%%", latG.Mean()), fmt.Sprintf("%+.0f%%", bwG.Mean()))
	return t
}

// Fig4FetchLatencyShare reports fetch latency's share of the extra stall
// cycles in the interleaved setup (the paper's 56%).
func (r CharacterizationResult) Fig4FetchLatencyShare() float64 {
	var extra topdown.Stack
	for _, row := range r.Rows {
		d := row.Interleaved.Stack.Normalize(row.Ref.Stack.Instrs).Delta(row.Ref.Stack)
		extra.Merge(d)
	}
	return stats.Ratio(extra.Cycles[topdown.FetchLatency], extra.StallCycles())
}

// Fig4Table renders the mean interleaved CPI normalized to the mean
// reference CPI, split fetch latency / fetch bandwidth / rest (Fig. 4).
func (r CharacterizationResult) Fig4Table() *stats.Table {
	var ref, il topdown.Stack
	for _, row := range r.Rows {
		ref.Merge(row.Ref.Stack)
		il.Merge(row.Interleaved.Stack.Normalize(row.Ref.Stack.Instrs))
	}
	refCPI := ref.CPI()
	t := stats.NewTable("Figure 4: mean interleaved CPI normalized to reference (100% = reference CPI)",
		"Component", "Reference", "Interleaved", "Extra")
	part := func(name string, rv, iv float64) {
		t.AddRow(name,
			fmt.Sprintf("%.0f%%", stats.Pct(rv, refCPI)),
			fmt.Sprintf("%.0f%%", stats.Pct(iv, refCPI)),
			fmt.Sprintf("%+.0f%%", stats.Pct(iv-rv, refCPI)))
	}
	part("Fetch Latency", ref.CPIOf(topdown.FetchLatency), il.CPIOf(topdown.FetchLatency))
	part("Fetch Bandwidth", ref.CPIOf(topdown.FetchBandwidth), il.CPIOf(topdown.FetchBandwidth))
	part("Rest", ref.CPI()-ref.CPIOf(topdown.FetchLatency)-ref.CPIOf(topdown.FetchBandwidth),
		il.CPI()-il.CPIOf(topdown.FetchLatency)-il.CPIOf(topdown.FetchBandwidth))
	part("Total", ref.CPI(), il.CPI())
	t.AddRow("Fetch-latency share of extra stalls",
		"", "", fmt.Sprintf("%.0f%%", r.Fig4FetchLatencyShare()*100))
	return t
}

// Fig5aTable renders L2 MPKI, instructions vs data (Fig. 5a).
func (r CharacterizationResult) Fig5aTable() *stats.Table {
	t := stats.NewTable("Figure 5a: L2 MPKI (instructions vs data)",
		"Function", "Ref data", "Ref instr", "Int data", "Int instr")
	var rd, ri, id, ii stats.Summary
	for _, row := range r.Rows {
		rd.Add(row.Ref.L2MPKIData)
		ri.Add(row.Ref.L2MPKIInstr)
		id.Add(row.Interleaved.L2MPKIData)
		ii.Add(row.Interleaved.L2MPKIInstr)
		t.AddRow(row.Name,
			fmt.Sprintf("%.1f", row.Ref.L2MPKIData), fmt.Sprintf("%.1f", row.Ref.L2MPKIInstr),
			fmt.Sprintf("%.1f", row.Interleaved.L2MPKIData), fmt.Sprintf("%.1f", row.Interleaved.L2MPKIInstr))
	}
	t.AddRow("Mean",
		fmt.Sprintf("%.1f", rd.Mean()), fmt.Sprintf("%.1f", ri.Mean()),
		fmt.Sprintf("%.1f", id.Mean()), fmt.Sprintf("%.1f", ii.Mean()))
	return t
}

// Fig5bTable renders LLC MPKI, instructions vs data (Fig. 5b).
func (r CharacterizationResult) Fig5bTable() *stats.Table {
	t := stats.NewTable("Figure 5b: LLC MPKI (instructions vs data)",
		"Function", "Ref data", "Ref instr", "Int data", "Int instr")
	var rd, ri, id, ii stats.Summary
	for _, row := range r.Rows {
		rd.Add(row.Ref.LLCMPKIData)
		ri.Add(row.Ref.LLCMPKIInstr)
		id.Add(row.Interleaved.LLCMPKIData)
		ii.Add(row.Interleaved.LLCMPKIInstr)
		t.AddRow(row.Name,
			fmt.Sprintf("%.2f", row.Ref.LLCMPKIData), fmt.Sprintf("%.2f", row.Ref.LLCMPKIInstr),
			fmt.Sprintf("%.1f", row.Interleaved.LLCMPKIData), fmt.Sprintf("%.1f", row.Interleaved.LLCMPKIInstr))
	}
	t.AddRow("Mean",
		fmt.Sprintf("%.2f", rd.Mean()), fmt.Sprintf("%.2f", ri.Mean()),
		fmt.Sprintf("%.1f", id.Mean()), fmt.Sprintf("%.1f", ii.Mean()))
	return t
}
