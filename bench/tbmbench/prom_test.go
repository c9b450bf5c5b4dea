package main

import (
	"math"
	"strings"
	"testing"
)

const scrapeBefore = `# HELP tbm_http_request_duration_seconds request latency
# TYPE tbm_http_request_duration_seconds histogram
tbm_http_request_duration_seconds_bucket{route="object",le="0.000001"} 0
tbm_http_request_duration_seconds_bucket{route="object",le="+Inf"} 10
tbm_http_request_duration_seconds_sum{route="object"} 0.002
tbm_http_request_duration_seconds_count{route="object"} 10
tbm_stage_duration_seconds_sum{stage="wal_fsync"} 0
tbm_stage_duration_seconds_count{stage="wal_fsync"} 0
tbm_wal_batch_size_bucket{le="0.000002"} 3
tbm_wal_batch_size_sum 0.000006
tbm_wal_batch_size_count 3
tbm_checkpoints_total{mode="full"} 1
# TYPE tbm_objects gauge
tbm_objects 100
tbm_expcache_compute_seconds_total 1.5e-05
`

const scrapeAfter = `tbm_http_request_duration_seconds_sum{route="object"} 0.012
tbm_http_request_duration_seconds_count{route="object"} 30
tbm_stage_duration_seconds_sum{stage="wal_fsync"} 0.004
tbm_stage_duration_seconds_count{stage="wal_fsync"} 8
tbm_wal_batch_size_sum 0.000022
tbm_wal_batch_size_count 11
tbm_checkpoints_total{mode="full"} 2
tbm_checkpoints_total{mode="incremental"} 4
tbm_objects 140
tbm_expcache_compute_seconds_total 2.5e-05
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	for series := range before {
		if strings.Contains(series, "_bucket") {
			t.Errorf("bucket series kept: %s", series)
		}
	}
	if before["tbm_objects"] != 100 || before["tbm_expcache_compute_seconds_total"] != 1.5e-05 {
		t.Errorf("plain series misparsed: %v", before)
	}
	d := after.delta(before)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("object mean", d.histMean("tbm_http_request_duration_seconds", `{route="object"}`), 0.010/20)
	near("fsync mean", d.histMean("tbm_stage_duration_seconds", `{stage="wal_fsync"}`), 0.004/8)
	near("unlabelled histogram", d.histMean("tbm_wal_batch_size", ""), 0.000016/8)
	near("no observations", d.histMean("tbm_stage_duration_seconds", `{stage="absent"}`), 0)
	// A series that first appears in the second scrape counts from zero.
	near("new series", d[`tbm_checkpoints_total{mode="incremental"}`], 4)
	near("counter", d[`tbm_checkpoints_total{mode="full"}`], 1)
}

func TestPromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"novalue\n", "tbm_objects twelve\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (tbm serve) x) S 1 4242 4242 0 -1 4194560 500 0 0 0 250 75 0 0 20 0 9 0 100 1000 200 18446744073709551615"
	user, sys, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if user != 2.5 || sys != 0.75 {
		t.Errorf("user %v sys %v, want 2.5 0.75", user, sys)
	}
	if _, _, err := parseProcStat("garbage"); err == nil {
		t.Error("parsed garbage")
	}
}
