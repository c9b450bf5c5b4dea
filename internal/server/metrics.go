package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"timedmedia/internal/telemetry"
)

// GET /metrics is content-negotiated: Prometheus text exposition by
// default (the format scrapers expect), the pre-existing JSON shape
// when the client asks for application/json. The Prometheus view
// covers the latency histograms and counters from the registry, the Go
// runtime's health (goroutines, heap, GC), plus every counter the JSON
// shape already reported (objects, expansion cache, journal, recovery,
// lifecycle), so nothing is lost by scraping only one format.

const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, metricsReply{
			Objects:        s.db.Len(),
			ExpansionCache: s.db.CacheStats(),
			Journal:        s.db.JournalStats(),
			Recovery:       s.db.Recovery(),
			Checkpoints:    s.checkpointStats(),
			Lifecycle:      s.stats.snapshot(),
		})
		return
	}
	w.Header().Set("Content-Type", prometheusContentType)
	if err := s.reg.WritePrometheus(w); err != nil {
		return
	}
	if err := telemetry.WriteRuntime(w); err != nil {
		return
	}
	s.writePromCounters(w)
}

// writePromCounters renders the stats structs that predate the
// registry (they live in their own atomic structs, not as registry
// series) in Prometheus text format.
func (s *Server) writePromCounters(w io.Writer) {
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	c := s.db.CacheStats()
	j := s.db.JournalStats()
	rec := s.db.Recovery()
	l := s.stats.snapshot()

	promGauge(w, "tbm_objects", "objects in the catalog", int64(s.db.Len()))
	promGauge(w, "tbm_version_chains", "object version chains retained, live or tombstoned (less tbm_objects: deleted history still held)",
		int64(s.db.CurrentView().VersionChains()))
	promGauge(w, "tbm_version_floor", "oldest journal seq as_of can still answer (retention pruned history below it)",
		int64(s.db.CurrentView().VersionFloor()))

	promCounter(w, "tbm_expcache_hits_total", "expansion cache hits (resident or joined flight)", c.Hits)
	promCounter(w, "tbm_expcache_misses_total", "expansion cache misses (decodes started)", c.Misses)
	promCounter(w, "tbm_expcache_evictions_total", "values evicted to respect the byte capacity", c.Evictions)
	promCounter(w, "tbm_expcache_errors_total", "expansion computations that failed", c.Errors)
	promGauge(w, "tbm_expcache_bytes_resident", "bytes of cached expansion values", c.BytesResident)
	promGauge(w, "tbm_expcache_capacity_bytes", "expansion cache byte bound (0 = unbounded)", c.CapacityBytes)
	promGauge(w, "tbm_expcache_entries", "resident expansion values", c.Entries)
	promGauge(w, "tbm_expcache_in_flight", "expansion computations running now", c.InFlight)
	fmt.Fprintf(w, "# TYPE tbm_expcache_compute_seconds_total counter\ntbm_expcache_compute_seconds_total %g\n",
		float64(c.ComputeNanos)/1e9)

	promCounter(w, "tbm_blob_corruptions_total", "payload files quarantined on checksum mismatch", s.db.BlobCorruptions())

	promCounter(w, "tbm_journal_appends_total", "journal records appended", j.Appends)
	promCounter(w, "tbm_journal_bytes_appended_total", "journal bytes appended", j.BytesAppended)
	promCounter(w, "tbm_journal_syncs_total", "journal fsyncs", j.Syncs)
	promCounter(w, "tbm_journal_batches_total", "group commits (one write+fsync each)", j.Batches)
	promCounter(w, "tbm_journal_append_errors_total", "failed journal appends", j.AppendErrors)
	promCounter(w, "tbm_journal_rotations_total", "journal segments sealed, at the segment byte bound or by a checkpoint", j.Rotations)
	promCounter(w, "tbm_journal_segments_compacted_total", "sealed journal segments deleted once a checkpoint covered them", j.SegmentsCompacted)

	promGauge(w, "tbm_recovery_snapshot_loaded", "whether the last load found a base checkpoint", int64(b2i(rec.SnapshotLoaded)))
	promGauge(w, "tbm_recovery_used_backup", "whether the last load fell back to the backup base", int64(b2i(rec.UsedBackup)))
	promGauge(w, "tbm_recovery_checkpoint_chain_broken", "whether the last load's checkpoint chain broke short of its end", int64(b2i(rec.CheckpointChainBroken)))
	promGauge(w, "tbm_recovery_manifest_corrupt", "whether the last load set a corrupt MANIFEST aside and rebuilt the chain from the file heads", int64(b2i(rec.ManifestCorrupt)))
	promGauge(w, "tbm_recovery_journal_records_replayed", "journal records replayed at last load", int64(rec.JournalRecords))
	promGauge(w, "tbm_recovery_journal_records_skipped", "journal records skipped at last load", int64(rec.JournalSkipped))
	promGauge(w, "tbm_recovery_journal_torn", "whether the last load truncated a torn journal tail", int64(b2i(rec.JournalTorn)))
	promGauge(w, "tbm_recovery_open_ms", "wall time catalog.Open took at this start, milliseconds", rec.OpenMs)
	promGauge(w, "tbm_recovery_blobs_swept", "BLOB files catalog.Open removed because nothing interprets them", int64(rec.BlobsSwept))

	promCounter(w, "tbm_http_panics_recovered_total", "handler panics converted to 500s", l.PanicsRecovered)
	promCounter(w, "tbm_http_load_shed_total", "requests shed with 503 at the in-flight bound", l.LoadShed)
	promGauge(w, "tbm_http_in_flight", "requests currently in flight", l.InFlight)
	promCounter(w, "tbm_http_streams_truncated_total", "streams cut short by a mid-stream payload error", l.StreamsTruncated)
}

func promCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func promGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}
