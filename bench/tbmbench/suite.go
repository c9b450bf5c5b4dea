package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"timedmedia/bench/specs"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	gated  bool
}

// reportedEndToEnd are the end-to-end metrics every untraced run
// measures and prints but BENCHMARK.json does not gate, each with the
// bound ISSUE 12 gave it: same-code runs on the box the benchmark was
// built on spread wider than that bound, and the issue's rule is to
// demote such a metric, not to widen its bound (bench/README.md has
// the spread that demoted each). Moving a line from here into
// BENCHMARK.json's end_to_end list gates the metric; nothing else
// changes.
var reportedEndToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.08},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.08},
	{Name: "object_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "query_sel_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "query_page_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "stream_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "expand_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "asof_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "asof_query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "elem_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.08},
	// Not in the issue: cpu_ms_per_op with the box's speed divided out.
	{Name: "cpu_per_op_rel", Unit: "ratio", Better: "lower", Bound: 0.08},
}

type benchmarkFile struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json from the working directory,
// which bench/run.sh makes the repository root.
func loadBenchmark() (*benchmarkFile, error) {
	const path = "BENCHMARK.json"
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range b.EndToEnd {
		b.EndToEnd[i].gated = true
	}
	return &b, nil
}

// gatedNames lists what a contract-mode run must print.
func (b *benchmarkFile) gatedNames() []string {
	names := make([]string, len(b.EndToEnd))
	for i, d := range b.EndToEnd {
		names[i] = d.Name
	}
	return names
}

// allEndToEnd is the gated metrics followed by the reported ones.
func (b *benchmarkFile) allEndToEnd() []metricDef {
	all := append([]metricDef(nil), b.EndToEnd...)
	for _, d := range reportedEndToEnd {
		dup := false
		for _, g := range b.EndToEnd {
			dup = dup || g.Name == d.Name
		}
		if !dup {
			all = append(all, d)
		}
	}
	return all
}

// suiteFile is what `tbmbench suite` writes and `compare` reads.
type suiteFile struct {
	Runs []*runResult `json:"runs"`
}

// shapeTolerance is how far p40 and p60 may sit from p50 before a
// latency metric counts as straddling two modes.
const shapeTolerance = 0.25

// cmdSuite runs the four workloads interleaved — browse, play, edit,
// audit, browse, … — so machine drift spreads over all of them, and
// prints every metric by name with unit, direction and bound.
func cmdSuite(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	var c commonFlags
	c.register(fs)
	runs := fs.Int("runs", 1, "runs per workload, interleaved across workloads")
	traced := fs.Bool("traced", false, "also make one traced pass per workload and print the per-layer metrics")
	seconds := fs.Int("seconds", 0, "section length (default: run_seconds from BENCHMARK.json)")
	seedBase := fs.Uint64("seed", 1, "seed of the first run; run i of a workload uses seed+i")
	out := fs.String("out", "", "write every run's record to this file")
	only := fs.String("workloads", strings.Join(specs.Names, ","), "comma-separated subset to run")
	aa := fs.Bool("aa", false, "run two interleaved sets (A, B, A, B, ...) of --runs each, write OUT.A.json and OUT.B.json, compare them; a gated metric that comes out worse fails")
	fs.Parse(args)

	defs, err := loadBenchmark()
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = defs.RunSeconds
	}
	names := strings.Split(*only, ",")
	if *aa {
		return runAA(defs, c, names, *runs, *seconds, *seedBase, *out)
	}
	var file suiteFile
	run := func(name string, seed uint64, tr bool) error {
		label := name
		if tr {
			label += " (traced)"
		}
		res, err := loggedRun(defs, c, label, name, seed, *seconds, tr)
		if err != nil {
			return err
		}
		file.Runs = append(file.Runs, res)
		return nil
	}
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			if err := run(name, *seedBase+uint64(i), false); err != nil {
				return err
			}
		}
	}
	if *traced {
		for _, name := range names {
			if err := run(name, *seedBase, true); err != nil {
				return err
			}
		}
	}
	if *out != "" {
		if err := writeJSONFile(*out, file); err != nil {
			return err
		}
	}
	printSuite(os.Stdout, defs, &file, names)
	for _, r := range file.Runs {
		if !r.Correct {
			return fmt.Errorf("%s seed %d: %d of %d operations failed, run not correct", r.Workload, r.Seed, r.OpsFailed, r.OpsAttempted)
		}
	}
	return nil
}

// loggedRun makes one run with its progress and failures on standard
// error.
func loggedRun(defs *benchmarkFile, c commonFlags, label, name string, seed uint64, seconds int, traced bool) (*runResult, error) {
	fmt.Fprintf(os.Stderr, "== %s seed %d\n", label, seed)
	res, err := runOnce(runConfig{workload: name, seed: seed, seconds: seconds, traced: traced,
		gated: defs.gatedNames(), buildDir: c.buildDir, outDir: c.outDir,
		logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, "   "+format+"\n", a...) }})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "   FAILED:", e)
	}
	return res, nil
}

// group collects one metric's values per workload over a suite file's
// untraced runs (every end-to-end number) or traced ones (per-layer).
func group(file *suiteFile, traced bool) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range file.Runs {
		if r.Traced != traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		metrics := r.EndToEnd
		if traced {
			metrics = r.Metrics
		}
		for name, m := range metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func gateWord(d metricDef) string {
	if d.gated {
		return "gated"
	}
	return "reported"
}

// printSuite prints every metric by name with unit, direction and
// bound. A SHAPE: line marks an op whose p40 or p60 lies more than
// shapeTolerance from its p50 in the last run; it informs and fails
// nothing, because no median is gated (see bench/README.md).
func printSuite(w io.Writer, defs *benchmarkFile, file *suiteFile, names []string) {
	e2e := group(file, false)
	layer := group(file, true)
	var shape []string
	for _, name := range names {
		var runs []*runResult
		for _, r := range file.Runs {
			if r.Workload == name && !r.Traced {
				runs = append(runs, r)
			}
		}
		if len(runs) == 0 {
			continue
		}
		last := runs[len(runs)-1]
		fmt.Fprintf(w, "\n## %s — %d run(s), %d clients, schedule %s\n", name, len(runs), last.Clients, short(last.ScheduleHash))
		attempted, failed := 0, 0
		for _, r := range runs {
			attempted += r.OpsAttempted
			failed += r.OpsFailed
		}
		fmt.Fprintf(w, "ops_attempted %d   ops_failed %d   section %.1fs   probe share of client time %.1f%%   generator %.0f%% of a core\n",
			attempted, failed, last.SectionS, 100*last.ProbeShare, 100*last.GenCPUFrac)
		fmt.Fprintf(w, "%-20s %-6s %-7s %6s %-9s %12s %12s %12s %8s\n", "metric", "unit", "better", "bound", "", "median", "q1", "q3", "spread")
		for _, d := range defs.allEndToEnd() {
			v := e2e[name][d.Name]
			q1, q2, q3 := quartiles(v)
			fmt.Fprintf(w, "%-20s %-6s %-7s %6.2f %-9s %12.4f %12.4f %12.4f %7.1f%%\n", d.Name, d.Unit, d.Better, d.Bound, gateWord(d), q2, q1, q3, 100*spread(v))
		}
		fmt.Fprintf(w, "  %-18s %10s %10s %10s %10s %8s   (last run)\n", "op latency, ms", "p40", "p50", "p60", "tail", "samples")
		for k := opKind(0); k < numOps; k++ {
			o, ok := last.Ops[opNames[k]]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-18s %10.4f %10.4f %10.4f %10.4f %8d\n", opNames[k], o.P40Ms, o.P50Ms, o.P60Ms, o.TailMs, o.Count)
			if o.P50Ms > 0 && (o.P40Ms < o.P50Ms*(1-shapeTolerance) || o.P60Ms > o.P50Ms*(1+shapeTolerance)) {
				shape = append(shape, fmt.Sprintf("%s on %s: p40 %.3f p50 %.3f p60 %.3f", opNames[k], name, o.P40Ms, o.P50Ms, o.P60Ms))
			}
		}
		if lm := layer[name]; lm != nil {
			fmt.Fprintf(w, "per-layer (traced pass)\n")
			for _, d := range defs.PerLayer {
				fmt.Fprintf(w, "  %-34s %-6s %-7s %14.4f\n", d.Name, d.Unit, d.Better, median(lm[d.Name]))
			}
		}
	}
	for _, line := range shape {
		fmt.Fprintln(w, "SHAPE:", line)
	}
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// printRun is the human-readable summary of one contract-mode run.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "%s seed %d: %d ops attempted, %d failed, section %.2fs, schedule %s\n",
		r.Workload, r.Seed, r.OpsAttempted, r.OpsFailed, r.SectionS, short(r.ScheduleHash))
	metrics := r.Metrics
	if !r.Traced {
		metrics = r.EndToEnd // the result line carries the gated ones of these
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}

// verdict classifies B against A for one metric: same, better, worse,
// or unresolved when either side's own spread exceeds the bound.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	rel := 0.0
	if ma != 0 {
		rel = (mb - ma) / math.Abs(ma)
	}
	if d.Better == "higher" {
		rel = -rel // positive now always means "B is worse"
	}
	switch {
	case spread(a) > d.Bound || spread(b) > d.Bound:
		return "unresolved", rel
	case rel > d.Bound:
		return "worse", rel
	case rel < -d.Bound:
		return "better", rel
	}
	return "same", rel
}

// runAA measures the same build twice, the two sets interleaved round
// by round so drift lands on both, and compares them: the benchmark's
// own noise check. Both sets use the same seeds.
func runAA(defs *benchmarkFile, c commonFlags, names []string, runs, seconds int, seedBase uint64, out string) error {
	var sets [2]suiteFile
	for i := 0; i < runs; i++ {
		for side := range sets {
			for _, name := range names {
				res, err := loggedRun(defs, c, fmt.Sprintf("set %c: %s", 'A'+side, name), name, seedBase+uint64(i), seconds, false)
				if err != nil {
					return err
				}
				sets[side].Runs = append(sets[side].Runs, res)
			}
		}
	}
	if out != "" {
		for side := range sets {
			if err := writeJSONFile(fmt.Sprintf("%s.%c.json", out, 'A'+side), &sets[side]); err != nil {
				return err
			}
		}
	}
	worse := compareSuites(os.Stdout, defs, &sets[0], &sets[1], "set A", "set B")
	for side := range sets {
		for _, r := range sets[side].Runs {
			if !r.Correct {
				return fmt.Errorf("%s seed %d: run not correct", r.Workload, r.Seed)
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("two sets of the same build disagree: %d gated pairs worse", worse)
	}
	return nil
}

// compareSuites prints, per (metric, workload), both medians and
// spreads, the relative difference, the bound and a verdict — for the
// gated metrics and for the reported ones, each against its own bound
// — and returns how many gated pairs came out worse.
func compareSuites(w io.Writer, defs *benchmarkFile, fa, fb *suiteFile, labelA, labelB string) (gatedWorse int) {
	a, b := group(fa, false), group(fb, false)
	tally := map[string]map[string]int{"gated": {}, "reported": {}}
	fmt.Fprintf(w, "A = %s, B = %s; spread = (q3-q1)/median; diff > 0 means B is worse\n", labelA, labelB)
	fmt.Fprintf(w, "%-8s %-20s %-8s %11s %7s %11s %7s %8s %6s  %s\n", "workload", "metric", "", "A median", "A sprd", "B median", "B sprd", "diff", "bound", "verdict")
	for _, name := range specs.Names {
		if a[name] == nil || b[name] == nil {
			continue
		}
		for _, d := range defs.allEndToEnd() {
			va, vb := a[name][d.Name], b[name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, rel := verdict(d, va, vb)
			tally[gateWord(d)][v]++
			fmt.Fprintf(w, "%-8s %-20s %-8s %11.4f %6.1f%% %11.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				name, d.Name, gateWord(d), median(va), 100*spread(va), median(vb), 100*spread(vb), 100*rel, 100*d.Bound, v)
		}
	}
	for _, g := range []string{"gated", "reported"} {
		t := tally[g]
		fmt.Fprintf(w, "%-8s same %d, better %d, worse %d, unresolved %d\n", g, t["same"], t["better"], t["worse"], t["unresolved"])
	}
	return tally["gated"]["worse"]
}

// cmdCompare compares two suite files; it fails when a gated metric
// is worse.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: tbmbench compare A.json B.json")
	}
	defs, err := loadBenchmark()
	if err != nil {
		return err
	}
	load := func(path string) (*suiteFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f suiteFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	fa, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	fb, err := load(fs.Arg(1))
	if err != nil {
		return err
	}
	if worse := compareSuites(os.Stdout, defs, fa, fb, filepath.Base(fs.Arg(0)), filepath.Base(fs.Arg(1))); worse > 0 {
		return fmt.Errorf("%d gated pairs worse", worse)
	}
	return nil
}
