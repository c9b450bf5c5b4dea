package main

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"timedmedia/bench/specs"
)

// An op kind whose every request failed must still yield a record
// that encodes: the run has to get as far as its result line to say
// "correct: false, failed: N".
func TestSummarizeWhenAnOpAlwaysFails(t *testing.T) {
	w, err := specs.Load("audit")
	if err != nil {
		t.Fatal(err)
	}
	slo, err := specs.SLO()
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, slo: slo, res: &runResult{Metrics: map[string]metric{}, Ops: map[string]opDetail{}}}
	var out sectionOut
	var counts [numOps]int
	for i := 0; i < 50; i++ {
		out.results = append(out.results,
			result{kind: opObject, lat: time.Duration(100+i) * time.Microsecond},
			result{kind: opAsOf, lat: time.Millisecond, err: errors.New("asof: status 500, want 200")})
		counts[opObject]++
		counts[opAsOf]++
	}
	sorted := r.summarize(out, counts)
	if len(sorted[opAsOf]) != 0 || len(sorted[opObject]) != 50 {
		t.Fatalf("samples: asof %d, object %d", len(sorted[opAsOf]), len(sorted[opObject]))
	}
	if r.res.OpsAttempted != 100 || r.res.OpsFailed != 50 {
		t.Errorf("attempted %d failed %d, want 100 and 50", r.res.OpsAttempted, r.res.OpsFailed)
	}
	if d := r.res.Ops["asof"]; d.Failed != 50 || d.SLOMiss != 50 || d.P50Ms != 0 {
		t.Errorf("asof detail %+v: want 50 failed, 50 missed, p50 0", d)
	}
	r.res.EndToEnd = map[string]metric{"asof_p50_ms": {percentile(sorted[opAsOf], 0.5), "ms"}}
	if _, err := json.Marshal(r.res); err != nil {
		t.Errorf("record does not encode: %v", err)
	}
}

// A 410 that was the correct answer counts as an op but is no latency
// sample: asof_p50_ms covers 200 outcomes only.
func TestGoneRepliesAreNoLatencySample(t *testing.T) {
	w, _ := specs.Load("audit")
	slo, _ := specs.SLO()
	r := &runner{w: w, slo: slo, res: &runResult{Ops: map[string]opDetail{}}}
	var counts [numOps]int
	counts[opAsOf] = 3
	sorted := r.summarize(sectionOut{results: []result{
		{kind: opAsOf, lat: 5 * time.Millisecond},
		{kind: opAsOf, lat: 6 * time.Millisecond},
		{kind: opAsOf, lat: 100 * time.Microsecond, gone: true},
	}}, counts)
	if got := sorted[opAsOf]; len(got) != 2 || got[0] != 5 {
		t.Errorf("latency sample %v, want [5 6]", got)
	}
	if r.res.OpsAttempted != 3 || r.res.OpsFailed != 0 {
		t.Errorf("attempted %d failed %d", r.res.OpsAttempted, r.res.OpsFailed)
	}
}

func TestSaveEvery(t *testing.T) {
	if got := saveEvery([]string{"-cache-mb", "64", "-save-every", "2s", "-wal-segment-mb", "1"}); got != 2*time.Second {
		t.Errorf("got %v", got)
	}
	if got := saveEvery([]string{"-cache-mb", "64", "-save-every", "0"}); got != 0 {
		t.Errorf("got %v", got)
	}
	if got := saveEvery([]string{"-cache-mb", "64"}); got != 0 {
		t.Errorf("got %v", got)
	}
}
