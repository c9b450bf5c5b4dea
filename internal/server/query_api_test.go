package server

import (
	"encoding/json"
	"strings"
	"testing"
)

// queryReply decodes the /v1/query list envelope.
type queryReply struct {
	Objects []struct {
		Name  string `json:"name"`
		Class string `json:"class"`
	} `json:"objects"`
	Total      int  `json:"total"`
	NextOffset *int `json:"next_offset"`
}

func runQuery(t *testing.T, baseURL, params string) queryReply {
	t.Helper()
	var r queryReply
	if err := json.Unmarshal(get(t, baseURL+"/v1/query?"+params, 200), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func queryNames(r queryReply) []string {
	out := make([]string, len(r.Objects))
	for i, o := range r.Objects {
		out[i] = o.Name
	}
	return out
}

// The fixture catalog (testServer): clip — 0.4 s video, language=en;
// song — 0.2 s tone; show — multimedia of clip@0ms + song@100ms,
// timeline [0, 0.4).
func TestQueryEndpointFilters(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		params string
		want   []string
	}{
		{"kind=video", []string{"clip"}},
		{"kind=audio", []string{"song"}},
		{"class=multimedia", []string{"show"}},
		{"class=nonderived&sort=name", []string{"clip", "song"}},
		{"attr.language=en", []string{"clip"}},
		{"attr.language=zz", []string{}},
		{"attr.language=en&attr.language=fr", []string{"clip"}}, // repeated key ORs
		{"derived_from=clip", []string{"show"}},
		{"derived_from=song", []string{"show"}},
		{"name_contains=s&sort=name", []string{"show", "song"}},
		{"live_at=0.3&sort=name", []string{"clip", "show"}},
		{"live_at=5", []string{}},
		{"overlaps=0.25,9&sort=name", []string{"clip", "show"}},
		{"min_duration=0.3", []string{"clip"}},
		{"max_duration=0.3", []string{"song"}},
		{"kind=video&attr.language=en&live_at=0.1", []string{"clip"}},
		{"sort=duration&limit=1", []string{"song"}},
	}
	for _, tc := range cases {
		r := runQuery(t, ts.URL, tc.params)
		got := queryNames(r)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.params, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: got %v, want %v", tc.params, got, tc.want)
				break
			}
		}
	}
}

func TestQueryEndpointCount(t *testing.T) {
	ts, _ := testServer(t)
	var r map[string]int
	if err := json.Unmarshal(get(t, ts.URL+"/v1/query?count=1", 200), &r); err != nil {
		t.Fatal(err)
	}
	if r["count"] != 3 {
		t.Errorf("count = %d", r["count"])
	}
	if err := json.Unmarshal(get(t, ts.URL+"/v1/query?kind=video&count=true", 200), &r); err != nil {
		t.Fatal(err)
	}
	if r["count"] != 1 {
		t.Errorf("video count = %d", r["count"])
	}
}

func TestQueryEndpointPagination(t *testing.T) {
	ts, _ := testServer(t)
	r := runQuery(t, ts.URL, "sort=name&limit=2")
	if r.Total != 3 || len(r.Objects) != 2 || r.NextOffset == nil || *r.NextOffset != 2 {
		t.Fatalf("page 1 = %v total %d next %v", queryNames(r), r.Total, r.NextOffset)
	}
	r = runQuery(t, ts.URL, "sort=name&limit=2&offset=2")
	if r.Total != 3 || len(r.Objects) != 1 || r.NextOffset != nil {
		t.Fatalf("page 2 = %v total %d next %v", queryNames(r), r.Total, r.NextOffset)
	}
	if r.Objects[0].Name != "song" {
		t.Errorf("last by name = %s", r.Objects[0].Name)
	}
	// Unsorted pagination walks in ID order with the same envelope.
	r = runQuery(t, ts.URL, "limit=1&offset=1")
	if r.Total != 3 || len(r.Objects) != 1 || r.Objects[0].Name != "song" {
		t.Errorf("ID-order page = %v total %d", queryNames(r), r.Total)
	}
}

func TestQueryEndpointBadRequests(t *testing.T) {
	ts, _ := testServer(t)
	for _, params := range []string{
		"kind=hologram",
		"class=imaginary",
		"live_at=noon",
		"live_at=NaN",
		"overlaps=NaN,1",
		"overlaps=NaN,NaN",
		"min_duration=NaN",
		"max_duration=NaN",
		"overlaps=5",
		"overlaps=5,2",
		"overlaps=a,b",
		"min_duration=x",
		"max_duration=x",
		"sort=rating",
		"limit=-3",
		"limit=x",
		"offset=-1",
	} {
		body := get(t, ts.URL+"/v1/query?"+params, 400)
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: no error envelope: %s", params, body)
		}
	}
	// ±Inf is an open bound, not a bad number.
	get(t, ts.URL+"/v1/query?overlaps=-Inf,Inf", 200)
	// Unknown derivation source is a 404, not a 400.
	get(t, ts.URL+"/v1/query?derived_from=ghost", 404)
}

// TestQueryEndpointMetrics checks the index probe counters surface
// through /metrics after indexed queries ran.
func TestQueryEndpointMetrics(t *testing.T) {
	ts, _ := testServer(t)
	runQuery(t, ts.URL, "kind=video")
	runQuery(t, ts.URL, "live_at=0.1")
	runQuery(t, ts.URL, "") // no indexable filter → scan fallback
	out := string(get(t, ts.URL+"/metrics", 200))
	for _, want := range []string{
		`tbm_index_probes_total{index="kind"}`,
		`tbm_index_probes_total{index="interval"}`,
		"tbm_index_scan_fallback_total",
		`tbm_http_request_duration_seconds_count{route="query"}`,
		`tbm_stage_duration_seconds_count{stage="query_plan"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s", want)
		}
	}
}
