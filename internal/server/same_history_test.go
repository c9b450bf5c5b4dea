package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/fixtures"
)

// Same history, same answers: two servers over identically ingested
// catalogs that are sent the same requests in the same order must give
// the same answers, response for response. The catalog's state is a
// function of its transaction-time history, so anything else is
// nondeterminism in the server: a JSON list built by ranging over a
// map, a candidate set that is never sorted. The history comes from
// the bitemporal oracle's generator, its cuts and batches go over
// HTTP, and a failing history shrinks to the fewest ops that still
// diverge.

// oracleDB builds the starting state every history runs on: the same
// fixtures ingested in the same order.
func oracleDB(t *testing.T) *catalog.DB {
	t.Helper()
	db := catalog.New(blob.NewMemStore())
	for i, name := range []string{"alpha", "beta"} {
		if _, err := db.Ingest(name, fixtures.Video(10, 32, 24, int64(i+1)), catalog.IngestOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// exchange is one request of a run and the canonical form of its
// answer.
type exchange struct {
	method, path string
	status       int
	ctype        string
	digest       string
	body         string
}

func (e exchange) same(o exchange) bool {
	return e.method == o.method && e.path == o.path && e.status == o.status &&
		e.ctype == o.ctype && e.digest == o.digest
}

// session sends requests to one server and logs every exchange.
type session struct {
	base string
	log  []exchange
}

func (s *session) do(t *testing.T, method, path string, body []byte) exchange {
	t.Helper()
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	ex := exchange{method, path, resp.StatusCode, ct, BodyDigest(ct, data), string(data)}
	s.log = append(s.log, ex)
	return ex
}

func (s *session) get(t *testing.T, path string) exchange {
	t.Helper()
	return s.do(t, http.MethodGet, path, nil)
}

// httpWriter is scriptWriter over the cut and batch routes.
type httpWriter struct{ s *session }

func (w httpWriter) cut(t *testing.T, src, name string, from, to int64) core.ID {
	t.Helper()
	ex := w.s.do(t, http.MethodPost,
		fmt.Sprintf("/v1/objects/%s/cut?out=%s&from=%d&to=%d", src, name, from, to), nil)
	var reply objectSummary
	if ex.status != http.StatusCreated || json.Unmarshal([]byte(ex.body), &reply) != nil {
		t.Fatalf("POST %s: %d %s", ex.path, ex.status, ex.body)
	}
	return core.ID(reply.ID)
}

func (w httpWriter) batch(t *testing.T, src string, names [2]string, from [2]int64) []core.ID {
	t.Helper()
	var items []batchItemJSON
	for i, name := range names {
		items = append(items, batchItemJSON{Name: name, Op: "video-edit", InputNames: []string{src},
			Params: json.RawMessage(fmt.Sprintf(`{"entries":[{"input":0,"from":%d,"to":%d}]}`, from[i], from[i]+1))})
	}
	body, err := json.Marshal(batchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	ex := w.s.do(t, http.MethodPost, "/v1/objects:batch", body)
	var reply batchReply
	if ex.status != http.StatusCreated || json.Unmarshal([]byte(ex.body), &reply) != nil || len(reply.IDs) != 2 {
		t.Fatalf("POST %s: %d %s", ex.path, ex.status, ex.body)
	}
	return []core.ID{core.ID(reply.IDs[0]), core.ID(reply.IDs[1])}
}

// pinnedPages counts, across runs, the follow-up pages a pinned query
// served across a mutation — the vacuity guard for the pagination
// probe.
var pinnedPages int

// sameHistoryRun applies script to a fresh server over HTTP and reads
// every read route between its ops: the object, expand and element
// routes, the four query shapes, and a paginated query whose first
// page is read before an op and whose later pages are followed through
// next_offset after it, pinned once by epoch= and once by as_of=. The
// reads are drawn from seed alone, so two runs of one script send the
// same requests for as long as they get the same answers.
func sameHistoryRun(t *testing.T, seed int64, script []histOp) []exchange {
	t.Helper()
	db := oracleDB(t)
	ts := httptest.NewServer(New(db))
	defer ts.Close()
	s := &session{base: ts.URL}
	run := newScriptRun(db, httpWriter{s}, "h")
	prng := rand.New(rand.NewSource(seed ^ 0x5a3e))
	for i, op := range script {
		page := []string{"kind=video", "class=derived"}[i%2]
		first := s.get(t, "/v1/query?limit=3&"+page)
		run.step(t, op)
		followPages(t, s, page, first)
		readRoutes(t, s, run, prng, len(script))
	}
	return s.log
}

// followPages walks the pages after first through next_offset, under
// both pins of first's epoch.
func followPages(t *testing.T, s *session, page string, first exchange) {
	t.Helper()
	var head listReply
	if first.status != http.StatusOK || json.Unmarshal([]byte(first.body), &head) != nil {
		return
	}
	for _, pin := range []string{"epoch", "as_of"} {
		for next := head.NextOffset; next != nil; {
			ex := s.get(t, fmt.Sprintf("/v1/query?limit=3&%s&offset=%d&%s=%d", page, *next, pin, head.Epoch))
			var reply listReply
			if ex.status != http.StatusOK || json.Unmarshal([]byte(ex.body), &reply) != nil {
				break
			}
			pinnedPages++
			next = reply.NextOffset
		}
	}
}

// readRoutes reads the query shapes of the bitemporal oracle, the
// derived_from and overlaps shapes, and one object's element and
// expansion.
func readRoutes(t *testing.T, s *session, run *scriptRun, prng *rand.Rand, nOps int) {
	t.Helper()
	for _, shape := range queryShapes(prng, nOps) {
		s.get(t, shape)
	}
	video := "alpha"
	if len(run.videos) > 0 {
		video = run.names[run.videos[prng.Intn(len(run.videos))]]
	}
	s.get(t, "/v1/query?limit=50&derived_from="+video)
	t1 := prng.Float64() * 2
	s.get(t, fmt.Sprintf("/v1/query?limit=50&overlaps=%.3f,%.3f", t1, t1+1))
	s.get(t, fmt.Sprintf("/v1/objects/%s/element/%d", video, prng.Intn(4)))
	expand := video
	if len(run.derived) > 0 && prng.Intn(2) == 0 {
		expand = run.names[run.derived[prng.Intn(len(run.derived))]]
	}
	s.get(t, "/v1/objects/"+expand+"/expand")
}

// sameHistoryDiff runs script on two fresh servers and returns "" when
// every exchange matches, else the first request whose answers differ.
func sameHistoryDiff(t *testing.T, seed int64, script []histOp) string {
	t.Helper()
	a, b := sameHistoryRun(t, seed, script), sameHistoryRun(t, seed, script)
	for i := range a {
		if i >= len(b) {
			break
		}
		if !a[i].same(b[i]) {
			return fmt.Sprintf("request %d, %s %s:\n    first server  %d %s %s\n    second server %d %s %s",
				i, a[i].method, a[i].path, a[i].status, a[i].ctype, a[i].body,
				b[i].status, b[i].ctype, b[i].body)
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("the runs sent %d and %d requests", len(a), len(b))
	}
	return ""
}

// TestSameHistorySameAnswers runs 20 seeded histories, each twice on
// fresh servers, and compares every answer's status, content type and
// canonical body (BodyDigest). A divergence shrinks its history and
// reports the first request that differs.
func TestSameHistorySameAnswers(t *testing.T) {
	pinnedPages = 0
	const histories = 20
	for h := 0; h < histories; h++ {
		seed := int64(7000 + h)
		rng := rand.New(rand.NewSource(seed))
		script := genScript(rng, 8+rng.Intn(5))
		d := sameHistoryDiff(t, seed, script)
		if d == "" {
			continue
		}
		// A nondeterministic answer may match by chance, so a trial
		// history fails if any of three pairs of runs diverges; last
		// keeps the divergence of the shortest failing history so far.
		first, last := d, d
		min := shrinkScript(script, func(s []histOp) bool {
			for i := 0; i < 3; i++ {
				if d := sameHistoryDiff(t, seed, s); d != "" {
					last = d
					return true
				}
			}
			return false
		})
		t.Fatalf("same history, different answers (seed %d)\n  %s\n  minimal script (%d ops): %+v\n  minimal divergence: %s",
			seed, first, len(min), min, last)
	}
	if pinnedPages == 0 {
		t.Error("no pinned page was followed across a mutation — the pagination probe went untested")
	}
}
