package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
)

// Replay re-issues a recorded trace, in record order, against a
// catalog rebuilt from the same starting point, and asserts response
// equivalence. The replay is sequential — record order is the only
// order the trace defines — so mutations land deterministically and
// reads see exactly the state the record-time request saw (modulo the
// volatile fields BodyDigest scrubs).
//
// Divergences are classified, not conflated:
//
//   - mismatch: status or normalized digest differs — the signal the
//     harness exists to catch;
//   - epoch_gone: a replayed request answered 410 epoch_gone because
//     the replay-side retention ring evicted the pinned epoch. With a
//     smaller retention setting than record time this is expected and
//     deterministic, so it is counted, never failed;
//   - recorded_shed: the record-time server shed the request before
//     any handler ran. It had no effect to reproduce, so replay skips
//     it and counts it.
//
// The report contains no wall-clock data: two replays of one trace
// against identically seeded catalogs must produce byte-identical
// reports (diffed in CI).

// maxMismatchSamples bounds the sample list in the report.
const maxMismatchSamples = 16

// MismatchSample pinpoints one diverging record.
type MismatchSample struct {
	Seq            uint64 `json:"seq"`
	Method         string `json:"method"`
	Path           string `json:"path"`
	RecordedStatus int    `json:"recorded_status"`
	ReplayedStatus int    `json:"replayed_status"`
	RecordedDigest string `json:"recorded_digest"`
	ReplayedDigest string `json:"replayed_digest"`
	ReplayedCode   string `json:"replayed_code,omitempty"`
	Note           string `json:"note,omitempty"`
}

// RouteCounts aggregates replay outcomes per route.
type RouteCounts struct {
	Replayed   int `json:"replayed"`
	Matches    int `json:"matches"`
	Mismatches int `json:"mismatches"`
	EpochGone  int `json:"epoch_gone"`
	Shed       int `json:"recorded_shed"`
}

// ReplayReport is the deterministic artifact of one replay.
type ReplayReport struct {
	Tool        string    `json:"tool"`
	TraceDigest string    `json:"trace_digest"`
	Meta        TraceMeta `json:"meta"`
	// InitialObjects is the replay-side catalog size before the first
	// record; InitialMatch is whether it equals the recorded Meta.
	InitialObjects int  `json:"initial_objects"`
	InitialMatch   bool `json:"initial_match"`

	Records      int `json:"records"`
	Replayed     int `json:"replayed"`
	Matches      int `json:"matches"`
	Mismatches   int `json:"mismatches"`
	EpochGone    int `json:"epoch_gone"`
	RecordedShed int `json:"recorded_shed"`
	// TransportErrors counts requests that failed before any response
	// (connection refused, timeout); they are also mismatches.
	TransportErrors int `json:"transport_errors"`

	Routes          map[string]*RouteCounts `json:"routes"`
	MismatchSamples []MismatchSample        `json:"mismatch_samples,omitempty"`
	Equivalent      bool                    `json:"equivalent"`
}

// TraceFileDigest is the hex SHA-256 of the raw trace file, embedded
// in the report so a report unambiguously names its input.
func TraceFileDigest(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("workload: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Replay runs the trace against base and builds the report.
func Replay(base string, meta TraceMeta, records []TraceRecord, traceDigest string) (*ReplayReport, error) {
	rep := &ReplayReport{
		Tool:        "tbmload replay",
		TraceDigest: traceDigest,
		Meta:        meta,
		Records:     len(records),
		Routes:      map[string]*RouteCounts{},
	}
	// Verify the rebuilt catalog matches the recorded starting point:
	// same object count before any record is replayed.
	rep.InitialObjects = countObjects(base)
	rep.InitialMatch = rep.InitialObjects == meta.Objects

	for _, rec := range records {
		rc := rep.Routes[rec.Route()]
		if rc == nil {
			rc = &RouteCounts{}
			rep.Routes[rec.Route()] = rc
		}
		if rec.Shed {
			rep.RecordedShed++
			rc.Shed++
			continue
		}
		rep.Replayed++
		rc.Replayed++
		status, ct, body, err := send(base, rec.Method, rec.Path, rec.Body)
		if err != nil {
			rep.TransportErrors++
			rep.Mismatches++
			rc.Mismatches++
			if len(rep.MismatchSamples) < maxMismatchSamples {
				rep.MismatchSamples = append(rep.MismatchSamples, MismatchSample{
					Seq: rec.Seq, Method: rec.Method, Path: rec.Path,
					RecordedStatus: rec.Status, RecordedDigest: rec.Digest,
					Note: "transport: " + err.Error(),
				})
			}
			continue
		}
		code, digest := ErrCodeFromBody(body), BodyDigest(ct, body)
		switch {
		case status == rec.Status && digest == rec.Digest:
			rep.Matches++
			rc.Matches++
		case status == http.StatusGone && code == "epoch_gone":
			// The replay-side retention ring evicted the pinned epoch —
			// a deterministic consequence of replay-side policy, not a
			// correctness failure.
			rep.EpochGone++
			rc.EpochGone++
		default:
			rep.Mismatches++
			rc.Mismatches++
			if len(rep.MismatchSamples) < maxMismatchSamples {
				rep.MismatchSamples = append(rep.MismatchSamples, MismatchSample{
					Seq: rec.Seq, Method: rec.Method, Path: rec.Path,
					RecordedStatus: rec.Status, ReplayedStatus: status,
					RecordedDigest: rec.Digest, ReplayedDigest: digest,
					ReplayedCode: code,
				})
			}
		}
	}
	rep.Equivalent = rep.Mismatches == 0 && rep.InitialMatch
	return rep, nil
}

// Route buckets a record for per-route counts. Shed requests never
// matched a route, so they bucket under "shed".
func (r TraceRecord) Route() string {
	if r.RouteName != "" {
		return r.RouteName
	}
	if r.Shed {
		return "shed"
	}
	return "other"
}

// countObjects asks the server how many objects it holds (the
// paginated list's total), or -1 when the probe fails.
func countObjects(base string) int {
	resp, err := httpClient.Get(base + "/v1/objects?limit=1")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var reply struct {
		Total int `json:"total"`
	}
	if json.NewDecoder(resp.Body).Decode(&reply) != nil || resp.StatusCode != http.StatusOK {
		return -1
	}
	return reply.Total
}

// EncodeReport renders the report as stable, indented JSON: struct
// field order is fixed and encoding/json sorts the route map, so
// equal reports are byte-equal.
func EncodeReport(rep *ReplayReport) []byte {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic("workload: report encode: " + err.Error())
	}
	return append(out, '\n')
}
