package telemetry

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketAccounting(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1}, // ceil(1.001µs)=2µs -> bucket 1
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10}, // 1024µs -> 2^10
		{time.Second, 20},      // 1e6µs <= 2^20=1048576µs
		{10 * time.Second, 24}, // 1e7µs <= 2^24=16777216µs
		{16777216 * time.Microsecond, 24},
		{17 * time.Second, NumFiniteBuckets}, // overflow
		{time.Hour, NumFiniteBuckets},
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Bucket bounds honor the le convention: every sample lands in a
	// bucket whose bound is >= the sample.
	for _, c := range cases {
		if c.want < NumFiniteBuckets && BucketBound(c.want) < c.d {
			t.Errorf("bucket %d bound %v < sample %v", c.want, BucketBound(c.want), c.d)
		}
	}
}

func TestHistogramObserveConcurrent(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	h.ObserveSince(time.Now())
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("nil snapshot count = %d", s.Count)
	}
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatalf("nil counter load = %d", c.Load())
	}
	var r *Registry
	r.Histogram("f", "").Observe(time.Second)
	r.Counter("f", "").Inc()
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatalf("nil registry write: %v", err)
	}
	var tr *Tracer
	tr.Add(TraceRecord{})
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot not nil")
	}
}

func TestRequestIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil || TraceFrom(ctx).RequestID() != "" {
		t.Fatal("empty context should carry nothing")
	}
	tr := NewTrace("rid-1", "GET", "/v1/objects")
	ctx = WithTrace(ctx, tr)
	if got := TraceFrom(ctx).RequestID(); got != "rid-1" {
		t.Fatalf("request ID = %q", got)
	}
	if TraceFrom(ctx) != tr {
		t.Fatal("trace not carried")
	}
	done := StartSpan(ctx, "lookup")
	done()
	rec, d := tr.Finish("list", 200, 10)
	if len(rec.Spans) != 1 || rec.Spans[0].Name != "lookup" {
		t.Fatalf("spans = %+v", rec.Spans)
	}
	if rec.Route != "list" || rec.Status != 200 || rec.Bytes != 10 || d <= 0 || rec.DurationMicros != d.Microseconds() {
		t.Fatalf("record = %+v after %v", rec, d)
	}
	// Spans after Finish are dropped.
	tr.AddSpanAt("late", time.Now(), time.Second)
	if got, _ := tr.Finish("list", 200, 10); len(got.Spans) != 1 {
		t.Fatalf("late span recorded: %+v", got.Spans)
	}
	// StartSpan without a trace is a no-op closure.
	StartSpan(context.Background(), "x")()
}

func TestTracerRingBounds(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Add(TraceRecord{RequestID: string(rune('a' + i))})
	}
	got := tr.Snapshot()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	// Newest first: e, d, c.
	want := []string{"e", "d", "c"}
	for i, w := range want {
		if got[i].RequestID != w {
			t.Fatalf("snapshot[%d] = %q, want %q", i, got[i].RequestID, w)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Histogram(RequestFamily, `route="list"`).Observe(3 * time.Microsecond)
	r.Histogram(RequestFamily, `route="list"`).Observe(20 * time.Second)
	r.Counter(IndexScanFallbackFamily, "").Add(2)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, w := range []string{
		"# TYPE tbm_http_request_duration_seconds histogram\n",
		`tbm_http_request_duration_seconds_bucket{route="list",le="+Inf"} 2`,
		`tbm_http_request_duration_seconds_bucket{route="list",le="4e-06"} 1`,
		`tbm_http_request_duration_seconds_count{route="list"} 2`,
		"# TYPE tbm_index_scan_fallback_total counter\n",
		"tbm_index_scan_fallback_total 2\n",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q\n%s", w, out)
		}
	}
	// Cumulative buckets are monotone: the 2µs bucket holds the 3µs
	// sample's predecessor count (0) and the sum line carries seconds.
	if !strings.Contains(out, `le="2e-06"} 0`) {
		t.Errorf("expected empty 2µs cumulative bucket\n%s", out)
	}
	if !strings.Contains(out, "tbm_http_request_duration_seconds_sum{route=\"list\"} 20.000003") {
		t.Errorf("sum line missing or wrong\n%s", out)
	}
}

// TestWriteRuntime: the runtime families render one sample each, the
// gauges read as a running program's — at least this goroutine, some
// heap — and the counters never fall: across a GC the cycle count
// rises and the pause time does not drop.
func TestWriteRuntime(t *testing.T) {
	read := func() map[string]float64 {
		t.Helper()
		var sb strings.Builder
		if err := WriteRuntime(&sb); err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			name, v, ok := strings.Cut(line, " ")
			f, err := strconv.ParseFloat(v, 64)
			if !ok || err != nil {
				t.Fatalf("malformed line %q", line)
			}
			got[name] = f
		}
		return got
	}
	runtime.GC()
	before := read()
	if len(before) != 4 || before["tbm_go_goroutines"] < 1 || before["tbm_go_heap_bytes"] <= 0 ||
		before["tbm_go_gc_cycles_total"] < 1 || before["tbm_go_gc_pause_cpu_seconds_total"] < 0 {
		t.Errorf("runtime samples %v", before)
	}
	runtime.GC()
	after := read()
	if after["tbm_go_gc_cycles_total"] <= before["tbm_go_gc_cycles_total"] {
		t.Errorf("GC cycles %v after a GC, %v before", after["tbm_go_gc_cycles_total"], before["tbm_go_gc_cycles_total"])
	}
	if after["tbm_go_gc_pause_cpu_seconds_total"] < before["tbm_go_gc_pause_cpu_seconds_total"] {
		t.Errorf("GC pause CPU seconds fell from %v to %v", before["tbm_go_gc_pause_cpu_seconds_total"], after["tbm_go_gc_pause_cpu_seconds_total"])
	}
}
