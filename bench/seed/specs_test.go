package seed_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"

	"timedmedia/bench/seed"
	"timedmedia/bench/specs"
	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/server"
)

// The four real specs must seed a catalog on which every query the
// driver can draw returns exactly what the manifest promises, and the
// page walk has its ten pages. SEED_SWEEP=n checks n seeds instead of
// one (a workload may fail on no seed).
func TestRealSpecsAnswerEveryQuery(t *testing.T) {
	seeds := 1
	if n, err := strconv.Atoi(os.Getenv("SEED_SWEEP")); err == nil && n > 0 {
		seeds = n
	}
	for _, name := range specs.Names {
		w, err := specs.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for s := 1; s <= seeds; s++ {
			db := catalog.New(blob.NewMemStore(), catalog.WithVersionRetention(seed.Retention))
			m, err := seed.Populate(db, w.Seed, uint64(s))
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, s, err)
			}
			h := server.New(db)
			rows := func(target string) (int, int) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s seed %d: GET %s: status %d", name, s, target, rec.Code)
				}
				var l struct {
					Objects []json.RawMessage `json:"objects"`
					Total   int               `json:"total"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &l); err != nil {
					t.Fatal(err)
				}
				return len(l.Objects), l.Total
			}
			if len(m.QuerySel) < 8 || len(m.LiveAt) < 2 {
				t.Errorf("%s seed %d: only %d selective and %d live_at queries", name, s, len(m.QuerySel), len(m.LiveAt))
			}
			for _, q := range m.QuerySel {
				if n, total := rows("/v1/query?" + q.Params); n != q.Want || total != q.Want || n < 1 || n > 50 {
					t.Errorf("%s seed %d: %s: %d rows (total %d), manifest promises %d", name, s, q.Params, n, total, q.Want)
				}
			}
			for _, q := range m.LiveAt {
				at := strconv.FormatUint(m.Floor, 10)
				if n, _ := rows("/v1/query?" + q.Params + "&as_of=" + at); n != q.Want {
					t.Errorf("%s seed %d: %s as_of floor: %d rows, want %d", name, s, q.Params, n, q.Want)
				}
			}
			if n, total := rows("/v1/query?kind=" + m.PageKind + "&limit=100&offset=900"); n != 100 || total != m.PageTotal {
				t.Errorf("%s seed %d: tenth page has %d rows, total %d (manifest %d)", name, s, n, total, m.PageTotal)
			}
			if m.Objects != w.Seed.Objects() || m.Floor <= 1 || m.Floor >= m.Seq {
				t.Errorf("%s seed %d: %d objects (spec %d), floor %d of %d", name, s, m.Objects, w.Seed.Objects(), m.Floor, m.Seq)
			}
		}
	}
}
