package seed

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/server"
)

// testSpec has every ingredient of the real specs at a size that
// populates in well under a second: enough video objects for a
// ten-page walk, compositions, churn and a floor inside the history.
var testSpec = Spec{Clips: 6, ClipFrames: 8, ClipW: 32, ClipH: 24, ClipCuts: 12, CutFrames: 4,
	Meta: 1400, MetaCuts: 600, Comps: 40, Churn: 300, FloorFrac: 0.1}

func populate(t *testing.T, seed uint64) (*catalog.DB, *Manifest) {
	t.Helper()
	db := catalog.New(blob.NewMemStore(), catalog.WithVersionRetention(Retention))
	m, err := Populate(db, testSpec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return db, m
}

type list struct {
	Objects []struct {
		Name string `json:"name"`
	} `json:"objects"`
	Total      int  `json:"total"`
	NextOffset *int `json:"next_offset"`
}

func get(t *testing.T, h http.Handler, target string, into any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code == http.StatusOK && into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: %v", target, err)
		}
	}
	return rec.Code
}

// Every query shape the driver sends must be selective on the seeded
// catalog: a selective query returns between 1 and its limit rows —
// exactly the count the manifest promises — and the page walk has at
// least ten full pages.
func TestQueryShapesAreSelective(t *testing.T) {
	db, m := populate(t, 1)
	h := server.New(db)
	kinds := map[string]int{}
	for _, q := range m.QuerySel {
		var l list
		if code := get(t, h, "/v1/query?"+q.Params, &l); code != 200 {
			t.Fatalf("%s: status %d", q.Params, code)
		}
		if q.Want < 1 || q.Want > 50 {
			t.Errorf("%s: manifest promises %d rows, outside 1..50", q.Params, q.Want)
		}
		if len(l.Objects) != q.Want || l.Total != q.Want {
			t.Errorf("%s: %d rows (total %d), manifest promises %d", q.Params, len(l.Objects), l.Total, q.Want)
		}
		kinds[q.Params[:strings.IndexAny(q.Params, "=.")]]++
	}
	for _, shape := range []string{"attr", "live_at", "overlaps", "derived_from"} {
		if kinds[shape] == 0 {
			t.Errorf("no %s query in the selective set (have %v)", shape, kinds)
		}
	}
	if len(m.LiveAt) == 0 {
		t.Fatal("no live_at query for as_of reads")
	}

	pages := 0
	for off := 0; ; off += 100 {
		var l list
		if code := get(t, h, fmt.Sprintf("/v1/query?kind=%s&limit=100&offset=%d", m.PageKind, off), &l); code != 200 {
			t.Fatalf("page at %d: status %d", off, code)
		}
		if l.Total != m.PageTotal {
			t.Fatalf("kind=%s total %d, manifest says %d", m.PageKind, l.Total, m.PageTotal)
		}
		if len(l.Objects) == 100 {
			pages++
		}
		if l.NextOffset == nil {
			break
		}
	}
	if pages < 10 {
		t.Errorf("%d full pages of kind=%s, want at least 10", pages, m.PageKind)
	}
}

func TestPopulateIsDeterministic(t *testing.T) {
	_, a := populate(t, 7)
	_, b := populate(t, 7)
	_, c := populate(t, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different manifest")
	}
	if reflect.DeepEqual(a.QuerySel, c.QuerySel) {
		t.Error("different seeds, same query set")
	}
	// What must not move with the seed: sizes, counts, payload bytes.
	if a.Objects != c.Objects || a.Seq != c.Seq || a.Floor != c.Floor || !reflect.DeepEqual(a.Clips, c.Clips) {
		t.Errorf("seed changed the catalog's size: %d/%d/%d vs %d/%d/%d", a.Objects, a.Seq, a.Floor, c.Objects, c.Seq, c.Floor)
	}
}

// The manifest's history must agree with what as_of reads see: the
// floor is inside the history, an object is visible from its birth to
// its death and not outside, and below the floor the answer is 410.
func TestHistoryMatchesAsOf(t *testing.T) {
	db, m := populate(t, 3)
	h := server.New(db)
	if m.Objects != testSpec.Objects() || m.Objects != db.Len() {
		t.Fatalf("manifest says %d objects, spec %d, catalog %d", m.Objects, testSpec.Objects(), db.Len())
	}
	if m.Floor <= 1 || m.Floor >= m.Seq {
		t.Fatalf("floor %d not inside history 1..%d", m.Floor, m.Seq)
	}
	if len(m.Churn) != testSpec.Churn {
		t.Fatalf("%d churn objects, want %d", len(m.Churn), testSpec.Churn)
	}
	status := func(name string, seq uint64) int {
		return get(t, h, fmt.Sprintf("/v1/objects/%s?as_of=%d", name, seq), nil)
	}
	if got := status(m.Perm[0].Name, m.Floor-1); got != http.StatusGone {
		t.Errorf("below the floor: status %d, want 410", got)
	}
	for _, l := range []Life{m.Churn[0], m.Churn[len(m.Churn)/2], m.Churn[len(m.Churn)-1]} {
		if l.Died <= l.Born {
			t.Fatalf("%s: born %d died %d", l.Name, l.Born, l.Died)
		}
		if l.Born >= m.Floor {
			if got := status(l.Name, l.Born); got != 200 {
				t.Errorf("%s at birth %d: status %d", l.Name, l.Born, got)
			}
			if got := status(l.Name, l.Born-1); got != 404 && got != 410 {
				t.Errorf("%s before birth: status %d", l.Name, got)
			}
		}
		if got := status(l.Name, l.Died-1); l.Died-1 >= m.Floor && got != 200 {
			t.Errorf("%s just before death %d: status %d", l.Name, l.Died, got)
		}
		if got := status(l.Name, l.Died); got != 404 {
			t.Errorf("%s at death %d: status %d, want 404", l.Name, l.Died, got)
		}
	}
	for _, l := range []Life{m.Perm[len(m.Perm)/2], m.Perm[len(m.Perm)-1]} {
		if got := status(l.Name, l.Born); got != 200 {
			t.Errorf("%s at birth %d: status %d", l.Name, l.Born, got)
		}
	}
	// as_of queries promise the same rows at any retained seq.
	q := m.LiveAt[0]
	for _, seq := range []uint64{m.Floor, (m.Floor + m.Seq) / 2, m.Seq} {
		var l list
		if code := get(t, h, fmt.Sprintf("/v1/query?%s&as_of=%d", q.Params, seq), &l); code != 200 || len(l.Objects) != q.Want {
			t.Errorf("%s as_of %d: status %d, %d rows, want %d", q.Params, seq, code, len(l.Objects), q.Want)
		}
	}
}
