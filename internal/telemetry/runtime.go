package telemetry

import (
	"fmt"
	"io"
	"runtime/metrics"
)

// runtimeSamples names what WriteRuntime reads from runtime/metrics,
// in the order it renders them.
var runtimeSamples = [...]string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
}

// WriteRuntime renders the Go runtime's health in Prometheus text:
// goroutines, heap bytes held by objects, completed GC cycles and the
// CPU time the GC's stop-the-world pauses took (the pause times
// GOMAXPROCS, as the runtime counts it, so the counter never falls
// when GOMAXPROCS changes). It reads runtime/metrics, which — unlike
// runtime.ReadMemStats — stops no world, so a scrape costs the server
// nothing it would notice.
func WriteRuntime(w io.Writer) error {
	var s [len(runtimeSamples)]metrics.Sample
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s[:])
	_, err := fmt.Fprintf(w, "# HELP tbm_go_goroutines goroutines that exist\n# TYPE tbm_go_goroutines gauge\ntbm_go_goroutines %d\n"+
		"# HELP tbm_go_heap_bytes heap memory occupied by live and not yet swept objects\n# TYPE tbm_go_heap_bytes gauge\ntbm_go_heap_bytes %d\n"+
		"# HELP tbm_go_gc_cycles_total completed GC cycles\n# TYPE tbm_go_gc_cycles_total counter\ntbm_go_gc_cycles_total %d\n"+
		"# HELP tbm_go_gc_pause_cpu_seconds_total CPU time of the GC's stop-the-world pauses\n# TYPE tbm_go_gc_pause_cpu_seconds_total counter\ntbm_go_gc_pause_cpu_seconds_total %g\n",
		s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Float64())
	return err
}
