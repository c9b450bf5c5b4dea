// Package specs holds the four workload definitions and the latency
// limits, embedded so the driver needs no path to find them.
package specs

import (
	"embed"
	"encoding/json"
	"fmt"

	"timedmedia/bench/seed"
)

//go:embed *.json
var files embed.FS

// Names is the fixed workload order; --runs N interleaves in it.
var Names = []string{"browse", "play", "edit", "audit"}

// NominalSeconds is the run length the op rates and probe counts
// below were sized for. Every list scales by seconds/NominalSeconds —
// one constant for all four workloads, never one each.
const NominalSeconds = 15

// Workload is one spec file.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Seed sizes the catalog.
	Seed seed.Spec `json:"seed"`
	// ServerFlags are passed to tbmserve after -dir and -addr.
	ServerFlags []string `json:"server_flags"`
	// Ops is the length of the measured op list at NominalSeconds,
	// both clients together: sized so the section takes about that
	// long at the commit that defined the benchmark.
	Ops int `json:"ops"`
	// Mix weights the signature ops; Probes gives every other op a
	// fixed sample count at NominalSeconds instead of a share.
	Mix    map[string]int `json:"mix"`
	Probes map[string]int `json:"probes"`
	// WarmupOps is the untimed slice run before the section;
	// PostRestartOps is the read-only slice run after the kill.
	WarmupOps      int `json:"warmup_ops"`
	PostRestartOps int `json:"post_restart_ops"`
	// Zipf is the popularity exponent for stream/element/expand
	// targets (0 = uniform).
	Zipf float64 `json:"zipf"`
	// RYW is the share of object reads that target a name the same
	// client wrote earlier in its list.
	RYW float64 `json:"ryw"`
	// BelowFloor is the share of as_of draws placed below the version
	// floor, where 410 is the only correct answer.
	BelowFloor float64 `json:"below_floor"`
}

// Load returns the named workload.
func Load(name string) (*Workload, error) {
	data, err := files.ReadFile(name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	var w Workload
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("specs/%s.json: %w", name, err)
	}
	if w.Name != name {
		return nil, fmt.Errorf("specs/%s.json names workload %q", name, w.Name)
	}
	return &w, nil
}

// Limits is specs/slo.json: what slo_ok_frac is judged by.
type Limits struct {
	// LimitsMs is each op's latency limit on a box running at
	// reference speed.
	LimitsMs map[string]float64 `json:"limits_ms"`
	// GenCPUMsPerOp is, per workload, the CPU time the load generator
	// itself spent per op at reference speed. The generator does the
	// same work on every run of a workload, so the ratio of what it
	// spends in a section to this number says how fast the box ran
	// during that section; the limits stretch by that ratio.
	GenCPUMsPerOp map[string]float64 `json:"generator_cpu_ms_per_op"`
}

// SLO returns the latency limits.
func SLO() (*Limits, error) {
	data, err := files.ReadFile("slo.json")
	if err != nil {
		return nil, err
	}
	var l Limits
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("specs/slo.json: %w", err)
	}
	return &l, nil
}
