package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is a scrape of /metrics: series (name plus its label
// block exactly as exposed, e.g. `tbm_stage_duration_seconds_sum{stage="lookup"}`)
// to value. Histogram buckets are skipped; sums and counts are what
// the per-layer deltas need.
type promSample map[string]float64

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold
		// spaces, series names may not.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		series := strings.TrimSpace(line[:i])
		if strings.Contains(series, "_bucket{") || strings.HasSuffix(series, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q", line)
		}
		out[series] = v
	}
	return out, sc.Err()
}

func scrape(base string) (promSample, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// delta returns after-before per series; a series absent before
// counts from zero.
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// histMean returns the mean of a histogram family's labelled series
// over the sample, in seconds (0 with no observations).
func (s promSample) histMean(family, labels string) float64 {
	n := s[family+"_count"+labels]
	if n == 0 {
		return 0
	}
	return s[family+"_sum"+labels] / n
}
