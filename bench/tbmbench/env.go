package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// environment is recorded with every run so a reader can tell machine
// drift from a code change. It is never used to normalise a metric.
type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_revision"`
	FsyncP50Us float64 `json:"fsync_p50_us"`
	SpinMs     float64 `json:"spin_ms"`
	BuildS     float64 `json:"build_s"`
}

// probeEnv measures the box: the median of 200 4 KiB write+fsync
// pairs in dir's filesystem, and a fixed CPU loop.
func probeEnv(dir, buildDir string) (environment, error) {
	env := environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     readTrim(filepath.Join(buildDir, "git_rev")),
	}
	env.BuildS, _ = strconv.ParseFloat(readTrim(filepath.Join(buildDir, "build_s")), 64)

	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return env, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	lat := make([]float64, 200)
	for i := range lat {
		start := time.Now()
		if _, err := f.Write(block); err != nil {
			return env, err
		}
		if err := f.Sync(); err != nil {
			return env, err
		}
		lat[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	sort.Float64s(lat)
	env.FsyncP50Us = percentile(lat, 0.5)

	start := time.Now()
	spinSink = spin(20_000_000)
	env.SpinMs = float64(time.Since(start)) / float64(time.Millisecond)
	return env, nil
}

var spinSink uint64

// spin is a fixed amount of integer work (an xorshift chain the
// compiler cannot fold).
func spin(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

func readTrim(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}
