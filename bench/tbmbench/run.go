package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"timedmedia/bench/layers"
	"timedmedia/bench/seed"
	"timedmedia/bench/specs"
)

// setupReps is how often an untraced run sets up (seed, start, ready,
// discovery, warm-up) before measuring; setup_s is the median, as the
// benchmark contract asks of a number it compares between commits on
// the strength of ten runs. One set-up moves 10-19% between runs here.
const setupReps = 3

// tracedShare is the part of the op list the traced pass runs.
const tracedShare = 0.25

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opDetail is one op's client-side summary for the run file.
type opDetail struct {
	Count   int     `json:"count"`
	Failed  int     `json:"failed"`
	SLOMiss int     `json:"slo_miss"`
	MeanMs  float64 `json:"mean_ms"`
	P25Ms   float64 `json:"p25_ms"`
	P40Ms   float64 `json:"p40_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P60Ms   float64 `json:"p60_ms"`
	P75Ms   float64 `json:"p75_ms"`
	TailMs  float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_percentile"`
	// ClientShare is this op's part of the section's client time.
	ClientShare float64 `json:"client_share"`
}

// runResult is everything one run produced. Metrics holds what the
// benchmark contract names: the gated end-to-end metrics when
// untraced, the per-layer ones when traced. EndToEnd holds every
// end-to-end number of an untraced run, gated or not.
type runResult struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Seconds      int               `json:"seconds"`
	Traced       bool              `json:"traced"`
	Clients      int               `json:"clients"`
	ScheduleHash string            `json:"schedule_hash"`
	OpsAttempted int               `json:"ops_attempted"`
	OpsFailed    int               `json:"ops_failed"`
	Correct      bool              `json:"correct"`
	Errors       []string          `json:"errors,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	EndToEnd     map[string]metric `json:"end_to_end,omitempty"`

	SectionS     float64             `json:"section_s"`
	SetupS       []float64           `json:"setup_s_each,omitempty"`
	ProbeShare   float64             `json:"probe_client_share"`
	GenCPUFrac   float64             `json:"gen_cpu_frac"`
	Speed        float64             `json:"slowdown_vs_reference"` // generator CPU per op over its frozen value; scales the SLO limits
	ObjectsEnd   int                 `json:"objects_end"`
	Checkpoints  map[string]int      `json:"checkpoints_by_mode,omitempty"` // the measured server's, at the end of the section
	ObjectsAfter int                 `json:"objects_after_restart"`
	AckedWrites  int                 `json:"acked_writes"`
	Ops          map[string]opDetail `json:"ops"`
	SpanFile     string              `json:"span_file,omitempty"`
	Env          environment         `json:"environment"`
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	gated    []string // the end-to-end names BENCHMARK.json gates
	buildDir string   // holds the tbmserve binary, build_s and git_rev
	outDir   string   // run directories, span files, run files
	logf     func(format string, args ...any)
}

// liveServers lets the signal handler kill whatever is running.
var liveServers struct {
	sync.Mutex
	m map[*server]struct{}
}

func track(s *server) {
	liveServers.Lock()
	if liveServers.m == nil {
		liveServers.m = map[*server]struct{}{}
	}
	liveServers.m[s] = struct{}{}
	liveServers.Unlock()
}

func untrack(s *server) {
	liveServers.Lock()
	delete(liveServers.m, s)
	liveServers.Unlock()
}

func killAllServers() {
	liveServers.Lock()
	defer liveServers.Unlock()
	for s := range liveServers.m {
		s.cmd.Process.Kill()
	}
}

// live is one set-up catalog with its server and schedules.
type live struct {
	m        *seed.Manifest
	dir      string
	srv      *server
	measured *schedule
	acked    []string // names the server acknowledged creating
	setupS   float64
}

func nClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

type runner struct {
	cfg     runConfig
	w       *specs.Workload
	slo     *specs.Limits
	workDir string
	res     *runResult
	nextDir int
}

func (r *runner) failf(format string, args ...any) {
	if len(r.res.Errors) < 12 {
		r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
	}
}

// tally counts the ops of a slice outside the measured section.
func (r *runner) tally(what string, results []result) {
	for _, res := range results {
		r.res.OpsAttempted++
		if res.err != nil {
			r.res.OpsFailed++
			r.failf("%s: %v", what, res.err)
		}
	}
}

// runOnce performs one whole run of one workload.
func runOnce(cfg runConfig) (res *runResult, err error) {
	w, err := specs.Load(cfg.workload)
	if err != nil {
		return nil, err
	}
	slo, err := specs.SLO()
	if err != nil {
		return nil, err
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if cfg.logf == nil {
		cfg.logf = func(string, ...any) {}
	}
	serveBin := filepath.Join(cfg.buildDir, "tbmserve")
	if _, err := os.Stat(serveBin); err != nil {
		return nil, fmt.Errorf("no tbmserve binary at %s (bench/run.sh builds it): %w", serveBin, err)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(cfg.outDir, "run-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, w: w, slo: slo, workDir: workDir, res: &runResult{
		Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Clients: nClients(), Metrics: map[string]metric{}, Ops: map[string]opDetail{},
	}}
	defer func() {
		// Data directories never outlive the run; the server log stays
		// only when something went wrong.
		if err == nil && r.res.Correct {
			os.RemoveAll(workDir)
			return
		}
		entries, _ := os.ReadDir(workDir)
		for _, e := range entries {
			if e.IsDir() {
				os.RemoveAll(filepath.Join(workDir, e.Name()))
			}
		}
	}()
	r.res.Env, err = probeEnv(workDir, cfg.buildDir)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	for _, name := range cfg.gated {
		m, ok := r.res.EndToEnd[name]
		if !ok && !cfg.traced {
			return nil, fmt.Errorf("BENCHMARK.json gates %q, which no run measures", name)
		}
		if ok {
			r.res.Metrics[name] = m
		}
	}
	r.res.Correct = r.res.OpsFailed == 0 && len(r.res.Errors) == 0
	return r.res, nil
}

// setUp seeds a fresh directory, starts a server on it, checks that
// the server sees what was seeded, and runs the warm-up slice.
func (r *runner) setUp() (*live, error) {
	start := time.Now()
	r.nextDir++
	dir := filepath.Join(r.workDir, fmt.Sprintf("data%d", r.nextDir))
	m, err := seed.Build(dir, r.w.Seed, r.cfg.seed)
	if err != nil {
		return nil, err
	}
	seeded := time.Since(start)
	scale := float64(r.cfg.seconds) / specs.NominalSeconds
	warm, err := buildSchedule(r.w, m, r.cfg.seed, "wu", r.w.WarmupOps, float64(r.w.WarmupOps)/float64(r.w.Ops), nClients(), false)
	if err != nil {
		return nil, err
	}
	total := int(float64(r.w.Ops) * scale)
	if r.cfg.traced {
		total = int(float64(total) * tracedShare)
		scale *= tracedShare
	}
	measured, err := buildSchedule(r.w, m, r.cfg.seed, "w", total, scale, nClients(), false)
	if err != nil {
		return nil, err
	}
	l := &live{m: m, dir: dir, measured: measured}
	if err := r.start(l); err != nil {
		return nil, err
	}
	ready := time.Since(start)
	// Discovery: the server must hold exactly what was seeded.
	s, err := scrape(l.srv.base)
	if err != nil {
		r.stop(l)
		return nil, err
	}
	if got := int(s["tbm_objects"]); got != m.Objects {
		r.stop(l)
		return nil, fmt.Errorf("server reports %d objects after seeding %d", got, m.Objects)
	}
	r.tally("warm-up", r.execute(l, warm, false).results)
	l.setupS = time.Since(start).Seconds()
	r.cfg.logf("set-up: seed %.2fs, start to ready %.2fs, warm-up %.2fs",
		seeded.Seconds(), (ready - seeded).Seconds(), l.setupS-ready.Seconds())
	return l, nil
}

func (r *runner) start(l *live) error {
	srv, err := startServer(filepath.Join(r.cfg.buildDir, "tbmserve"), l.dir,
		filepath.Join(r.workDir, "serve.log"), r.w.ServerFlags)
	if err != nil {
		return err
	}
	track(srv)
	l.srv = srv
	return nil
}

func (r *runner) stop(l *live) {
	if l.srv != nil {
		l.srv.kill()
		untrack(l.srv)
		l.srv = nil
	}
}

func (r *runner) tearDown(l *live) {
	r.stop(l)
	os.RemoveAll(l.dir)
}

// sectionOut is what executing one schedule produced.
type sectionOut struct {
	results []result
	wall    time.Duration
	spans   []span
	genCPU  float64 // driver CPU seconds spent during the slice
	srvUser float64
	srvSys  float64
}

// execute runs a schedule with one closed-loop client per list and
// records which writes the server acknowledged.
func (r *runner) execute(l *live, s *schedule, traced bool) sectionOut {
	clients := make([]*client, len(s.clients))
	outs := make([][]result, len(s.clients))
	for i := range clients {
		clients[i] = newClient(l.srv.base, traced)
		outs[i] = make([]result, 0, len(s.clients[i]))
	}
	u0, s0, _ := procCPU(l.srv.pid())
	self0 := selfCPU()
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = clients[i].run(s.clients[i], t0, outs[i])
		}(i)
	}
	wg.Wait()
	out := sectionOut{wall: time.Since(t0)}
	out.genCPU = selfCPU() - self0
	u1, s1, _ := procCPU(l.srv.pid())
	out.srvUser, out.srvSys = u1-u0, s1-s0
	for i, c := range clients {
		c.close()
		out.spans = append(out.spans, c.spans...)
		for k, res := range outs[i] {
			if res.err == nil {
				l.acked = append(l.acked, s.clients[i][k].Writes...)
			}
		}
		out.results = append(out.results, outs[i]...)
	}
	return out
}

// summarize folds a section's results into the run: counts, failures
// and the per-op detail table. It returns per-op sorted latencies in
// milliseconds: successful ops only, and of those only the ones whose
// correct answer was not a 410.
func (r *runner) summarize(out sectionOut, counts [numOps]int) map[opKind][]float64 {
	// The latency limits are frozen for a box at reference speed; this
	// one's speed changes by a quarter from one minute to the next. The
	// generator's own CPU time per op — fixed work, spent inside the
	// section on the same cores — says how fast the box ran just now,
	// and the limits stretch or shrink with it.
	speed := 1.0
	if ref := r.slo.GenCPUMsPerOp[r.w.Name]; ref > 0 && len(out.results) > 0 {
		speed = out.genCPU * 1000 / float64(len(out.results)) / ref
	}
	r.res.Speed = speed
	lat := map[opKind][]time.Duration{}
	clientTime := map[opKind]time.Duration{}
	failed := map[opKind]int{}
	miss := map[opKind]int{}
	var all time.Duration
	for _, res := range out.results {
		r.res.OpsAttempted++
		clientTime[res.kind] += res.lat
		all += res.lat
		limit := time.Duration(r.slo.LimitsMs[opNames[res.kind]] * speed * float64(time.Millisecond))
		if res.err != nil {
			r.res.OpsFailed++
			failed[res.kind]++
			miss[res.kind]++
			r.failf("%v", res.err)
			continue
		}
		if res.lat > limit {
			miss[res.kind]++
		}
		if !res.gone { // a 410 is answered before any view is built
			lat[res.kind] = append(lat[res.kind], res.lat)
		}
	}
	sorted := map[opKind][]float64{}
	probe := time.Duration(0)
	for k := opKind(0); k < numOps; k++ {
		if counts[k] == 0 {
			continue
		}
		ms := msSorted(lat[k])
		sorted[k] = ms
		tail := highestSupported(len(ms))
		d := opDetail{
			Count: counts[k], Failed: failed[k], SLOMiss: miss[k],
			MeanMs: mean(ms), P25Ms: percentile(ms, 0.25), P40Ms: percentile(ms, 0.40), P50Ms: percentile(ms, 0.50),
			P60Ms: percentile(ms, 0.60), P75Ms: percentile(ms, 0.75),
			TailMs: percentile(ms, tail), TailPct: tail,
		}
		if all > 0 {
			d.ClientShare = float64(clientTime[k]) / float64(all)
		}
		if _, isProbe := r.w.Probes[opNames[k]]; isProbe {
			probe += clientTime[k]
		}
		r.res.Ops[opNames[k]] = d
	}
	if all > 0 {
		r.res.ProbeShare = float64(probe) / float64(all)
	}
	return sorted
}

// crashAndRecover kills the server, restarts it on the same directory
// with the same flags, runs the read-only slice, reads back every
// acknowledged write and lets the checkpointer catch up. It returns
// kill→slice-done, exec→ready and the restarted server's /metrics.
//
// SIGKILL keeps the OS cache, so this checks that a process crash
// loses nothing acknowledged; power loss is the faultfs suite's job.
func (r *runner) crashAndRecover(l *live) (recoverS, openS float64, after promSample, err error) {
	post, err := buildSchedule(r.w, l.m, r.cfg.seed, "pr", r.w.PostRestartOps,
		float64(r.w.PostRestartOps)/float64(r.w.Ops), nClients(), true)
	if err != nil {
		return 0, 0, nil, err
	}
	killed := time.Now()
	r.stop(l)
	restart := time.Now()
	if err := r.start(l); err != nil {
		return 0, 0, nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	restarted := time.Now()
	openS = restarted.Sub(restart).Seconds()
	out := r.execute(l, post, false)
	recoverS = time.Since(killed).Seconds()
	r.tally("post-restart", out.results)
	// Every acknowledged write must still be there.
	back := &schedule{clients: make([][]op, nClients())}
	for i, name := range l.acked {
		c := i % len(back.clients)
		back.clients[c] = append(back.clients[c], op{Kind: opObject, Method: "GET", Path: "/v1/objects/" + name, Status: 200, Name: name})
	}
	acked := len(l.acked)
	r.tally("acknowledged write lost", r.execute(l, back, false).results)
	if err := r.settle(l, restarted); err != nil {
		return 0, 0, nil, err
	}
	after, err = scrape(l.srv.base)
	if err != nil {
		return 0, 0, nil, err
	}
	r.res.AckedWrites = acked
	r.res.ObjectsAfter = int(after["tbm_objects"])
	if want := l.m.Objects + acked; r.res.ObjectsAfter != want {
		r.failf("tbm_objects is %d after restart, want %d (%d seeded + %d acknowledged)", r.res.ObjectsAfter, want, l.m.Objects, acked)
	}
	return recoverS, openS, after, nil
}

// untraced is the end-to-end pass: tracing off everywhere.
func (r *runner) untraced() error {
	var l *live
	for i := 0; i < setupReps; i++ {
		if l != nil {
			r.tearDown(l)
		}
		var err error
		if l, err = r.setUp(); err != nil {
			return err
		}
		r.res.SetupS = append(r.res.SetupS, l.setupS)
	}
	defer func() { r.tearDown(l) }()
	r.res.ScheduleHash = l.measured.hash()

	out := r.execute(l, l.measured, false)
	sorted := r.summarize(out, l.measured.counts)
	r.res.SectionS = out.wall.Seconds()
	r.res.GenCPUFrac = out.genCPU / out.wall.Seconds()
	r.cfg.logf("section: %d ops in %.2fs", len(out.results), r.res.SectionS)

	end, err := scrape(l.srv.base)
	if err != nil {
		return err
	}
	r.res.ObjectsEnd = int(end["tbm_objects"])
	r.res.Checkpoints = map[string]int{
		"full":        int(end[`tbm_checkpoints_total{mode="full"}`]),
		"incremental": int(end[`tbm_checkpoints_total{mode="incremental"}`]),
	}
	missed := 0
	for _, d := range r.res.Ops {
		missed += d.SLOMiss
	}
	nOps := float64(len(out.results))

	recoverS, _, _, err := r.crashAndRecover(l)
	if err != nil {
		return err
	}
	r.cfg.logf("recovered in %.2fs; %d acknowledged writes read back", recoverS, r.res.AckedWrites)
	disk, err := dirBytes(l.dir)
	if err != nil {
		return err
	}

	// Every end-to-end number, under the names bench/README.md fixes;
	// runOnce copies the ones BENCHMARK.json gates into Metrics.
	e := map[string]metric{}
	e["ops_per_s"] = metric{nOps / out.wall.Seconds(), "1/s"}
	e["cpu_ms_per_op"] = metric{(out.srvUser + out.srvSys) * 1000 / nOps, "ms"}
	for _, k := range latencyOps {
		e[opNames[k]+"_p50_ms"] = metric{percentile(sorted[k], 0.5), "ms"}
	}
	e["slo_ok_frac"] = metric{1 - float64(missed)/nOps, "frac"}
	e["recover_s"] = metric{recoverS, "s"}
	e["disk_mb"] = metric{float64(disk) / 1e6, "MB"}
	e["setup_s"] = metric{median(r.res.SetupS), "s"}
	e["elem_mb_per_s"] = metric{elemRate(out.results, l.measured.counts, sorted), "MB/s"}
	// Not one of the issue's fifteen: the server's CPU per op counted in
	// the generator's CPU per op, which the box's speed cancels out of.
	e["cpu_per_op_rel"] = metric{ratio(out.srvUser+out.srvSys, out.genCPU), "ratio"}
	r.res.EndToEnd = e
	return nil
}

// latencyOps are the ops whose median is an end-to-end metric, one
// request shape each.
var latencyOps = []opKind{opObject, opQuerySel, opQueryPage, opStream, opExpand, opWrite, opAsOf, opAsOfQuery}

// settle waits, on a server that checkpoints on a timer, until the
// restarted server has checkpointed what it replayed: the directory
// then holds the run's writes once, in checkpoints, whatever moment
// the timer happened to fire at before the kill. Read at the
// section's last reply, disk_mb on edit moved by 6% between runs of
// one seed with how much of the journal the latest checkpoint had yet
// to cover.
//
// The server has no way to ask for a checkpoint, so the driver watches
// the counter, which starts at zero with the process: any checkpoint
// the restarted server finished began after the last write. With
// nothing replayed the timer's firing is a silent no-op, and a period
// of uptime says the same.
func (r *runner) settle(l *live, restarted time.Time) error {
	every := saveEvery(r.w.ServerFlags)
	if every <= 0 {
		return nil
	}
	for time.Since(restarted) < every+settleSlack {
		s, err := scrape(l.srv.base)
		if err != nil {
			return err
		}
		if s[`tbm_checkpoints_total{mode="full"}`]+s[`tbm_checkpoints_total{mode="incremental"}`] > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	r.cfg.logf("checkpointer caught up %.2fs after the restart", time.Since(restarted).Seconds())
	return nil
}

// settleSlack is how long past its period the restarted server's
// first checkpoint is given to finish before settle stops waiting.
const settleSlack = 2 * time.Second

// saveEvery reads the checkpoint period out of a spec's server flags.
func saveEvery(flags []string) time.Duration {
	for i := 0; i+1 < len(flags); i++ {
		if flags[i] == "-save-every" {
			d, _ := time.ParseDuration(flags[i+1])
			return d
		}
	}
	return 0
}

// elemRate is the delivery rate: the bytes the three delivery ops
// returned over the client time spent in them, with each op's time
// taken as count × median — a plain sum would let a few stalled
// requests out of a probe slice's few hundred move it.
func elemRate(results []result, counts [numOps]int, sorted map[opKind][]float64) float64 {
	var bytes int64
	for _, res := range results {
		if res.kind == opStream || res.kind == opElement || res.kind == opExpand {
			bytes += res.bytes
		}
	}
	ms := 0.0
	for _, k := range []opKind{opStream, opElement, opExpand} {
		ms += float64(counts[k]) * percentile(sorted[k], 0.5)
	}
	return ratio(float64(bytes)/1e6, ms/1e3)
}

// traced is the per-layer pass: a quarter of the op list, run once
// with tracing off and once more, on an identically seeded fresh
// server, with the client recording a span tree per request;
// /metrics deltas around the traced section give each layer's busy
// time and counts. The difference between the two passes is what
// tracing costs.
//
// The server is not started with -trace-out: its capture middleware
// normalises and digests every JSON body, which slowed browse by 31%
// and edit by 18% when tried here — a traced pass that distorts the
// layers it reports on is no use. Server-side time per route comes
// from the always-on request histograms instead.
func (r *runner) traced() error {
	l, err := r.setUp()
	if err != nil {
		return err
	}
	r.res.SetupS = []float64{l.setupS}
	r.res.ScheduleHash = l.measured.hash()
	ref := r.execute(l, l.measured, false)
	refRate := float64(len(ref.results)) / ref.wall.Seconds()
	r.tally("reference pass", ref.results)
	r.tearDown(l)

	l, err = r.setUp()
	if err != nil {
		return err
	}
	defer func() { r.tearDown(l) }()
	before, err := scrape(l.srv.base)
	if err != nil {
		return err
	}
	out := r.execute(l, l.measured, true)
	after, err := scrape(l.srv.base)
	if err != nil {
		return err
	}
	rss := procRSSMB(l.srv.pid())
	sorted := r.summarize(out, l.measured.counts)
	r.res.SectionS = out.wall.Seconds()
	r.res.GenCPUFrac = out.genCPU / out.wall.Seconds()
	r.res.ObjectsEnd = int(after["tbm_objects"])
	d := after.delta(before)

	recoverS, openS, recovered, err := r.crashAndRecover(l)
	if err != nil {
		return err
	}

	spanFile := filepath.Join(r.cfg.outDir, r.w.Name+".spans.json")
	if err := writeJSONFile(spanFile, out.spans); err != nil {
		return err
	}
	r.res.SpanFile = spanFile

	set := func(name string, v float64, unit string) { r.res.Metrics[name] = metric{v, unit} }
	var bodyBytes int64
	clientSum := map[opKind]float64{} // ms, every attempt
	for _, res := range out.results {
		bodyBytes += res.bytes
		clientSum[res.kind] += float64(res.lat) / float64(time.Millisecond)
	}
	for k := opObject; k <= opAsOfQuery; k++ {
		set("client."+opNames[k]+".p50_ms", percentile(sorted[k], 0.5), "ms")
		set("client."+opNames[k]+".tail_ms", percentile(sorted[k], highestSupported(len(sorted[k]))), "ms")
	}
	set("client.ops_per_s", float64(len(out.results))/out.wall.Seconds(), "1/s")
	set("client.gen_cpu_frac", r.res.GenCPUFrac, "frac")
	set("client.body_mb_per_s", float64(bodyBytes)/1e6/out.wall.Seconds(), "MB/s")
	set("client.elem_mb_per_s", elemRate(out.results, l.measured.counts, sorted), "MB/s")

	const reqFam, stageFam = "tbm_http_request_duration_seconds", "tbm_stage_duration_seconds"
	for _, route := range []string{"object", "query", "stream", "element", "expand", "cut", "batch"} {
		set("server.http."+route+".mean_ms", d.histMean(reqFam, `{route="`+route+`"}`)*1e3, "ms")
	}
	stage := func(name string) float64 { return d.histMean(stageFam, `{stage="`+name+`"}`) }
	// What the client waited for beyond what the server's outermost
	// timer saw, per request on the object route (plain and as_of reads
	// alike, since the route's histogram cannot tell them apart).
	objReqs := d[reqFam+`_count{route="object"}`]
	set("server.envelope.object_ms",
		ratio(clientSum[opObject]+clientSum[opAsOf]-d[reqFam+`_sum{route="object"}`]*1e3, objReqs), "ms")
	set("server.payload.mean_us", stage("payload")*1e6, "us")
	set("server.shed", d["tbm_http_load_shed_total"], "count")
	set("server.rss_end_mb", rss, "MB")
	set("server.cpu_user_s", out.srvUser, "s")
	set("server.cpu_sys_s", out.srvSys, "s")
	set("server.cpu_ms_per_op", (out.srvUser+out.srvSys)*1000/float64(len(out.results)), "ms")
	set("server.cpu_per_gen_cpu", ratio(out.srvUser+out.srvSys, out.genCPU), "ratio")

	queries := d[reqFam+`_count{route="query"}`]
	probes := 0.0
	for series, v := range d {
		if strings.HasPrefix(series, "tbm_index_probes_total{") {
			probes += v
		}
	}
	set("query.plan.mean_us", stage("query_plan")*1e6, "us")
	set("query.index_probes_per_query", ratio(probes, queries), "count")
	set("query.scan_fallbacks", d["tbm_index_scan_fallback_total"], "count")

	// Checkpoints of the traced section and of the restarted server: a
	// quarter list is shorter than edit's checkpoint period, and the one
	// that covers what recovery replayed is a checkpoint like any other.
	const ckptCount, ckptBusy = "tbm_checkpoints_total", stageFam + `_sum{stage="checkpoint"}`
	checkpoints, busy := 0.0, d[ckptBusy]+recovered[ckptBusy]
	for _, mode := range []string{"full", "incremental"} {
		checkpoints += d[ckptCount+`{mode="`+mode+`"}`] + recovered[ckptCount+`{mode="`+mode+`"}`]
	}
	set("catalog.lookup.mean_us", stage("lookup")*1e6, "us")
	set("catalog.checkpoint.count", checkpoints, "count")
	set("catalog.checkpoint.mean_ms", ratio(busy, checkpoints)*1e3, "ms")
	set("catalog.open_s", openS, "s")
	set("catalog.recover_s", recoverS, "s")
	set("catalog.replayed_records", recovered["tbm_recovery_journal_records_replayed"], "count")
	set("catalog.objects_end", after["tbm_objects"], "count")

	writes := float64(l.measured.counts[opWrite] + l.measured.counts[opBatch])
	set("wal.append.mean_us", stage("journal_append")*1e6, "us")
	set("wal.fsync.mean_us", stage("wal_fsync")*1e6, "us")
	set("wal.fsyncs_per_write", ratio(d["tbm_journal_syncs_total"], writes), "count")
	// Batch sizes are exposed on the microsecond scale: n records = n µs.
	set("wal.batch_size.mean", ratio(d["tbm_wal_batch_size_sum"], d["tbm_wal_batch_size_count"])*1e6, "count")
	set("wal.bytes_per_write", ratio(d["tbm_journal_bytes_appended_total"], writes), "B")

	hits, misses := d["tbm_expcache_hits_total"], d["tbm_expcache_misses_total"]
	set("expcache.hit_ratio", ratio(hits, hits+misses), "frac")
	set("expcache.evictions", d["tbm_expcache_evictions_total"], "count")
	set("expcache.fill.mean_ms", stage("expcache_fill")*1e3, "ms")
	set("derive.expand.mean_ms", stage("expand")*1e3, "ms")
	set("codec.decode.mean_ms", stage("decode")*1e3, "ms")
	set("blob.read.mean_us", stage("blob_read")*1e6, "us")
	set("blob.reads_per_stream", ratio(d[stageFam+`_count{stage="blob_read"}`], float64(l.measured.counts[opStream])), "count")

	env := r.res.Env
	set("env.nproc", float64(env.NProc), "count")
	set("env.gomaxprocs", float64(env.GoMaxProcs), "count")
	set("env.fsync_p50_us", env.FsyncP50Us, "us")
	set("env.spin_ms", env.SpinMs, "ms")
	set("env.build_s", env.BuildS, "s")
	set("trace.overhead_frac", 1-float64(len(out.results))/out.wall.Seconds()/refRate, "frac")

	rows, err := layers.Run(filepath.Join(r.workDir, "layers"))
	if err != nil {
		return fmt.Errorf("layers: %w", err)
	}
	for _, row := range rows {
		set(row.Name+".ns_op", row.NsOp, "ns")
		set(row.Name+".allocs_op", row.AllocsOp, "count")
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func writeJSONFile(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
