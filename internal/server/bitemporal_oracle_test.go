package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/timebase"
)

// The bitemporal oracle: a transaction-time read MUST equal a replay.
// For a journaled catalog with committed history H and any sequence S,
//
//	query(live catalog, as_of=S)  ≡  query(fresh catalog replayed to S)
//
// after volatile-field normalization (epoch numbers and request IDs
// differ by construction; BodyDigest strips exactly those).
// The left side reads version chains inside one pinned epoch view; the
// right side rebuilds state record by record with a replay cap — two
// independent implementations of "the catalog at S", which is what
// makes the equivalence an oracle rather than a tautology.

// histOp is one scripted mutation: an op selector plus pre-drawn
// randomness, so a history is a pure function of its script. Greedy
// shrinking relies on that: dropping an op re-applies the remainder
// deterministically, and ops whose targets disappeared skip themselves
// — any subset of a script is itself a valid script.
type histOp struct {
	kind       int // 0 ingest, 1 cut, 2 batch, 3 multimedia, 4 sync, 5 delete
	r1, r2, r3 int64
}

func genScript(rng *rand.Rand, steps int) []histOp {
	ops := make([]histOp, steps)
	for i := range ops {
		k := rng.Intn(10)
		switch {
		case i == 0 || k < 3:
			ops[i].kind = 0 // ingest — the first op always seeds media
		case k < 5:
			ops[i].kind = 1
		case k < 7:
			ops[i].kind = 2
		case k < 8:
			ops[i].kind = 3
		case k < 9:
			ops[i].kind = 4
		default:
			ops[i].kind = 5
		}
		ops[i].r1, ops[i].r2, ops[i].r3 = rng.Int63(), rng.Int63(), rng.Int63()
	}
	return ops
}

// scriptWriter creates a script's cuts and batches. The bitemporal
// oracle calls the catalog (libWriter); TestSameHistorySameAnswers
// sends them over HTTP. Ingest, multimedia, sync and delete have no
// route, so a script applies them through the catalog either way.
type scriptWriter interface {
	cut(t *testing.T, src, name string, from, to int64) core.ID
	batch(t *testing.T, src string, names [2]string, from [2]int64) []core.ID
}

// libWriter is scriptWriter over the catalog's own mutators.
type libWriter struct{ db *catalog.DB }

func (w libWriter) cut(t *testing.T, src, name string, from, to int64) core.ID {
	t.Helper()
	obj, err := w.db.Lookup(src)
	if err != nil {
		t.Fatalf("cut %s: %v", name, err)
	}
	id, err := w.db.SelectDuration(obj.ID, name, from, to)
	if err != nil {
		t.Fatalf("cut %s: %v", name, err)
	}
	return id
}

func (w libWriter) batch(t *testing.T, src string, names [2]string, from [2]int64) []core.ID {
	t.Helper()
	obj, err := w.db.Lookup(src)
	if err != nil {
		t.Fatalf("batch %s: %v", names[0], err)
	}
	cut := func(from int64) []byte {
		return derive.EncodeParams(derive.EditParams{
			Entries: []derive.EditEntry{{Input: 0, From: from, To: from + 1}}})
	}
	ids, err := w.db.AddBatch([]catalog.BatchItem{
		{Name: names[0], Op: "video-edit", Inputs: []core.ID{obj.ID}, Params: cut(from[0])},
		{Name: names[1], Op: "video-edit", Inputs: []core.ID{obj.ID}, Params: cut(from[1])},
	})
	if err != nil {
		t.Fatalf("batch %s: %v", names[0], err)
	}
	return ids
}

// scriptRun applies a history script one op at a time and remembers
// what the ops so far created, for later ops to draw targets from.
// Deletes target derived and multimedia objects only: deleting the
// last non-derived reader of a BLOB garbage-collects the BLOB, and a
// from-scratch replay of the interpretation record would then have
// nothing to open. Structural refusals (delete of a referenced object,
// sync on an already-deleted composition) are outcomes of the script,
// not failures.
type scriptRun struct {
	db     *catalog.DB
	w      scriptWriter
	prefix string
	n      int
	// videos, derived and multis are the objects the script created,
	// by class; names names each of them.
	videos, derived, multis []core.ID
	names                   map[core.ID]string
	// freed holds names a delete released; the next cut takes the
	// oldest one instead of a fresh name, so one name comes to head two
	// version chains — the old object's and the new one's.
	freed []string
}

func newScriptRun(db *catalog.DB, w scriptWriter, prefix string) *scriptRun {
	return &scriptRun{db: db, w: w, prefix: prefix, names: map[core.ID]string{}}
}

// nameReuses counts, across script runs, the cuts that took a name an
// earlier delete had freed — the oracle's vacuity guard for the
// two-chains-one-name case.
var nameReuses int

// applyScript replays a history script onto a catalog.
func applyScript(t *testing.T, db *catalog.DB, prefix string, script []histOp) {
	t.Helper()
	run := newScriptRun(db, libWriter{db}, prefix)
	for _, op := range script {
		run.step(t, op)
	}
}

// step applies one scripted op.
func (r *scriptRun) step(t *testing.T, op histOp) {
	t.Helper()
	db := r.db
	r.n++
	name := fmt.Sprintf("%s-%03d", r.prefix, r.n)
	switch op.kind {
	case 0:
		id, err := db.Ingest(name, fixtures.Video(4+int(op.r1%6), 16, 12, op.r2),
			catalog.IngestOptions{Attrs: map[string]string{"lane": fmt.Sprintf("l%d", op.r3%3)}})
		if err != nil {
			t.Fatalf("ingest %s: %v", name, err)
		}
		r.videos = append(r.videos, id)
		r.names[id] = name
	case 1:
		if len(r.videos) == 0 {
			return
		}
		if len(r.freed) > 0 {
			name, r.freed = r.freed[0], r.freed[1:]
			nameReuses++
		}
		src := r.names[r.videos[int(op.r1)%len(r.videos)]]
		from := op.r2 % 3
		id := r.w.cut(t, src, name, from, from+1+op.r3%2)
		r.derived = append(r.derived, id)
		r.names[id] = name
	case 2:
		if len(r.videos) == 0 {
			return
		}
		src := r.names[r.videos[int(op.r1)%len(r.videos)]]
		names := [2]string{name + "a", name + "b"}
		ids := r.w.batch(t, src, names, [2]int64{op.r2 % 3, op.r3 % 3})
		r.derived = append(r.derived, ids...)
		r.names[ids[0]], r.names[ids[1]] = names[0], names[1]
	case 3:
		if len(r.videos) == 0 {
			return
		}
		a := r.videos[int(op.r1)%len(r.videos)]
		b := r.videos[int(op.r2)%len(r.videos)]
		id, err := db.AddMultimedia(name, timebase.Millis, []core.ComponentRef{
			{Object: a, Start: op.r3 % 2000},
			{Object: b, Start: 500},
		}, nil)
		if err != nil {
			t.Fatalf("multimedia %s: %v", name, err)
		}
		r.multis = append(r.multis, id)
		r.names[id] = name
	case 4:
		if len(r.multis) == 0 {
			return
		}
		m := r.multis[int(op.r1)%len(r.multis)]
		err := db.AddSync(m, 0, 1, 5+op.r2%20)
		if err != nil && !errors.Is(err, catalog.ErrNotFound) {
			t.Fatalf("sync: %v", err)
		}
	case 5:
		pool := r.derived
		if op.r3%2 == 0 && len(r.multis) > 0 {
			pool = r.multis
		}
		if len(pool) == 0 {
			return
		}
		id := pool[int(op.r1)%len(pool)]
		err := db.Delete(id)
		if err != nil && !errors.Is(err, catalog.ErrInUse) && !errors.Is(err, catalog.ErrNotFound) {
			t.Fatalf("delete: %v", err)
		}
		if err == nil {
			r.freed = append(r.freed, r.names[id])
		}
	}
}

// copyDir copies every regular file of a catalog directory into a
// fresh one, so a replay opens its own journal handles instead of
// sharing segment files with the live catalog.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

type probeResp struct {
	status int
	digest string
	body   string
}

func fetch(t *testing.T, url string) probeResp {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return probeResp{resp.StatusCode,
		BodyDigest(resp.Header.Get("Content-Type"), body), string(body)}
}

// withParam appends one key=value to a path that may or may not carry
// a query string already.
func withParam(path, kv string) string {
	if strings.Contains(path, "?") {
		return path + "&" + kv
	}
	return path + "?" + kv
}

// queryShapes draws the probe set for one sequence: planner filters,
// pagination, a count, and every named read route on a scripted name
// (which may well 404, or refuse the route for its class, on both
// sides — also an equivalence).
func queryShapes(prng *rand.Rand, nOps int) []string {
	shapes := []string{
		"/v1/query?kind=video&limit=50",
		"/v1/query?class=derived&sort=name&limit=50",
		fmt.Sprintf("/v1/query?live_at=%.3f&limit=50", prng.Float64()*3),
		fmt.Sprintf("/v1/query?kind=video&sort=name&limit=2&offset=%d", prng.Intn(3)),
		"/v1/query?count=1",
	}
	name := fmt.Sprintf("h-%03d", 1+prng.Intn(nOps))
	if prng.Intn(2) == 0 {
		name += "a" // a batch item name
	}
	for _, route := range []string{"", "/element/0", "/at/0", "/stream", "/expand", "/timeline", "/lineage"} {
		shapes = append(shapes, "/v1/objects/"+name+route)
	}
	return shapes
}

// bitemporalDiff builds the scripted history in a journaled catalog,
// then for a deterministic set of probe sequences compares every live
// as_of=S read against a fresh catalog replayed to S (replay cap).
// Returns "" when fully equivalent, else a description of the first
// divergence. Probes include the boundaries: sequence 1, the newest
// sequence, and a sequence past the end ("as of the future" must read
// as the latest state).
func bitemporalDiff(t *testing.T, seed int64, script []histOp) string {
	t.Helper()
	dir := t.TempDir()
	store := blob.NewMemStore()
	db, err := catalog.Open(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	applyScript(t, db, "h", script)
	maxSeq := db.Seq()
	live := httptest.NewServer(New(db))
	defer live.Close()
	liveEpoch := db.CurrentView().Epoch()

	prng := rand.New(rand.NewSource(seed ^ 0x5eed))
	probes := []uint64{1, maxSeq, maxSeq + 7}
	for i := 0; i < 4 && maxSeq > 1; i++ {
		probes = append(probes, 1+uint64(prng.Int63())%maxSeq)
	}
	for _, S := range probes {
		rdb, err := catalog.Open(copyDir(t, dir), store, catalog.WithReplayCap(S))
		if err != nil {
			return fmt.Sprintf("replay to seq %d: %v", S, err)
		}
		// The replayed catalog rebuilt its own version chains from the
		// journal — they must verify just like the live ones.
		if err := rdb.CurrentView().VerifyVersions(); err != nil {
			rdb.CloseJournal()
			return fmt.Sprintf("replay to seq %d: %v", S, err)
		}
		replay := httptest.NewServer(New(rdb))
		asOf := fmt.Sprintf("as_of=%d", S)
		for si, shape := range queryShapes(prng, len(script)) {
			lr := fetch(t, live.URL+withParam(shape, asOf))
			rr := fetch(t, replay.URL+shape)
			if lr.status != rr.status || lr.digest != rr.digest {
				replay.Close()
				rdb.CloseJournal()
				return fmt.Sprintf("seq %d, %s: live as_of %d %q vs replay %d %q",
					S, shape, lr.status, lr.body, rr.status, rr.body)
			}
			if si == 0 {
				// epoch= composes with as_of=: pinning the epoch the
				// request would resolve to anyway must change nothing.
				pinned := fetch(t, live.URL+withParam(withParam(shape, asOf),
					fmt.Sprintf("epoch=%d", liveEpoch)))
				if pinned.status != lr.status || pinned.digest != lr.digest {
					replay.Close()
					rdb.CloseJournal()
					return fmt.Sprintf("seq %d, %s: epoch pin changed the as_of read: %d %q vs %d %q",
						S, shape, pinned.status, pinned.body, lr.status, lr.body)
				}
			}
		}
		replay.Close()
		rdb.CloseJournal()
	}
	return ""
}

// shrinkScript greedily minimizes a failing history, dropping one op
// at a time while fails still holds.
func shrinkScript(script []histOp, fails func([]histOp) bool) []histOp {
	for changed := true; changed; {
		changed = false
		for i := range script {
			trial := append(append([]histOp{}, script[:i]...), script[i+1:]...)
			if len(trial) == 0 {
				continue
			}
			if fails(trial) {
				script, changed = trial, true
				break
			}
		}
	}
	return script
}

// TestBitemporalOracle is the battery: 100 seeded random histories,
// each probed at boundary and random sequences across filter,
// pagination, count, point-read and epoch-pinned shapes.
func TestBitemporalOracle(t *testing.T) {
	histories := 100
	if testing.Short() {
		histories = 10
	}
	nameReuses = 0
	for h := 0; h < histories; h++ {
		seed := int64(4000 + h)
		rng := rand.New(rand.NewSource(seed))
		script := genScript(rng, 8+rng.Intn(5))
		if d := bitemporalDiff(t, seed, script); d != "" {
			min := shrinkScript(script, func(s []histOp) bool { return bitemporalDiff(t, seed, s) != "" })
			t.Fatalf("bitemporal divergence (seed %d)\n  %s\n  minimal script (%d ops): %+v\n  minimal divergence: %s",
				seed, d, len(min), min, bitemporalDiff(t, seed, min))
		}
	}
	t.Logf("%d histories, %d names re-used across a delete", histories, nameReuses)
	if nameReuses == 0 && !testing.Short() {
		t.Error("no history re-used a name across a delete — the two-chains-one-name case went untested")
	}
}

// TestBitemporalOracleAcrossCheckpoint runs the oracle across the
// persistence boundary: history → full Save → more history →
// incremental Checkpoint → Load a copy. The loaded catalog's version
// chains came entirely out of snapshot version frames (the checkpoint
// compacted the journal), so every as_of answer it gives must be
// byte-equal to the live catalog's.
func TestBitemporalOracleAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	store := blob.NewMemStore()
	db, err := catalog.Open(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	rng := rand.New(rand.NewSource(7))
	script := genScript(rng, 12)
	applyScript(t, db, "a", script[:6])
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	applyScript(t, db, "b", script[6:])
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	maxSeq := db.Seq()

	ldb, err := catalog.Load(copyDir(t, dir), store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ldb.CurrentView().VerifyVersions(); err != nil {
		t.Fatalf("loaded chains do not verify: %v", err)
	}
	if err := ldb.CurrentView().VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	live := httptest.NewServer(New(db))
	defer live.Close()
	loaded := httptest.NewServer(New(ldb))
	defer loaded.Close()
	for S := uint64(1); S <= maxSeq; S++ {
		for _, shape := range []string{
			"/v1/query?kind=video&limit=50",
			"/v1/query?class=multimedia&limit=50",
			"/v1/objects/a-001",
		} {
			p := withParam(shape, fmt.Sprintf("as_of=%d", S))
			lr, rr := fetch(t, live.URL+p), fetch(t, loaded.URL+p)
			if lr.status != rr.status || lr.digest != rr.digest {
				t.Fatalf("seq %d, %s: live %d %q vs loaded %d %q",
					S, shape, lr.status, lr.body, rr.status, rr.body)
			}
		}
	}
}

// TestBitemporalRetentionGone pins the deterministic failure mode: a
// catalog retaining only the committed state (retention 1) evicts a
// chain's history on its first re-edit, and every as_of below the
// floor answers 410 with the stable version_gone code — the same
// answer every time it is asked. Gone probes are counted, not failed:
// they are the policy working.
func TestBitemporalRetentionGone(t *testing.T) {
	dir := t.TempDir()
	store := blob.NewMemStore()
	db, err := catalog.Open(dir, store, catalog.WithVersionRetention(1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	rng := rand.New(rand.NewSource(99))
	applyScript(t, db, "h", genScript(rng, 14))
	// Deterministic churn: a cut created and deleted gives its chain a
	// second entry, which retention 1 prunes immediately.
	src, err := db.Lookup("h-001") // the first scripted op is always an ingest
	if err != nil {
		t.Fatal(err)
	}
	cut, err := db.SelectDuration(src.ID, "churn", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(cut); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest("after-churn", fixtures.Video(4, 16, 12, 42), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	floor := db.CurrentView().VersionFloor()
	if floor == 0 {
		t.Fatalf("retention 1 never raised the version floor across %d sequences", db.Seq())
	}
	ts := httptest.NewServer(New(db))
	defer ts.Close()

	gone := 0
	for S := uint64(1); S <= db.Seq(); S++ {
		r := fetch(t, ts.URL+fmt.Sprintf("/v1/query?kind=video&as_of=%d&limit=50", S))
		if S < floor {
			gone++
			if r.status != http.StatusGone {
				t.Fatalf("as_of=%d below floor %d: status %d, want 410: %s", S, floor, r.status, r.body)
			}
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal([]byte(r.body), &env); err != nil || env.Error.Code != "version_gone" {
				t.Fatalf("as_of=%d below floor: code %q, want version_gone: %s", S, env.Error.Code, r.body)
			}
			// Deterministic: the same probe answers the same way again.
			if again := fetch(t, ts.URL+fmt.Sprintf("/v1/query?kind=video&as_of=%d&limit=50", S)); again.digest != r.digest || again.status != r.status {
				t.Fatalf("as_of=%d not deterministic: %q then %q", S, r.body, again.body)
			}
		} else if r.status != http.StatusOK {
			t.Fatalf("as_of=%d at/above floor %d: status %d: %s", S, floor, r.status, r.body)
		}
	}
	if gone == 0 {
		t.Fatal("no probe landed below the floor — the eviction case went untested")
	}
	// The same facts from /metrics: where the floor stands, how many
	// reads it refused (each gone probe was asked twice), and one
	// asof_resolve observation per answered as_of read.
	metrics := fetch(t, ts.URL+"/metrics").body
	for _, want := range []string{
		fmt.Sprintf("tbm_version_floor %d\n", floor),
		fmt.Sprintf("tbm_version_gone_total %d\n", 2*gone),
		fmt.Sprintf("tbm_stage_duration_seconds_count{stage=\"asof_resolve\"} %d\n", int(db.Seq())-gone),
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestQueryRejectsUnknownParams locks in the strict parameter
// whitelist: a typo'd parameter (as_off=) must answer 400 bad_request
// rather than silently matching everything.
func TestQueryRejectsUnknownParams(t *testing.T) {
	db := oracleDB(t)
	ts := httptest.NewServer(New(db))
	defer ts.Close()

	for _, bad := range []string{
		"/v1/query?as_off=5",
		"/v1/query?kind=video&limitt=3",
		"/v1/query?attrlane=x", // attr filters need the attr. prefix
	} {
		r := fetch(t, ts.URL+bad)
		if r.status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, r.status)
		}
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.Unmarshal([]byte(r.body), &env); err != nil {
			t.Errorf("%s: not an error envelope: %s", bad, r.body)
			continue
		}
		if env.Error.Code != "bad_request" || !strings.Contains(env.Error.Message, "unknown query parameter") {
			t.Errorf("%s: envelope %+v, want bad_request naming the parameter", bad, env.Error)
		}
	}
	// Every documented parameter still passes.
	ok := fetch(t, ts.URL+"/v1/query?kind=video&class=nonderived&name_contains=a&live_at=0.1"+
		"&min_duration=0&max_duration=100&sort=name&limit=5&offset=0&attr.lane=x&as_of=1")
	if ok.status != http.StatusOK {
		t.Errorf("whitelisted parameters rejected: %d %s", ok.status, ok.body)
	}
}

// TestAsOfHonouredOnEveryReadRoute: every read route reads the past,
// the graph routes all the way down. The composition, a cut of a cut
// and the cut under both are deleted after S, so a live read of any is
// 404, and with as_of=S every route answers 200 from the version
// chains: expand resolves its input, timeline its components and
// lineage its ancestry at S.
func TestAsOfHonouredOnEveryReadRoute(t *testing.T) {
	db := oracleDB(t)
	alpha, _ := db.Lookup("alpha")
	cut, err := db.SelectDuration(alpha.ID, "cut", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	cut2, err := db.SelectDuration(cut, "cut2", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := db.AddMultimedia("mm", timebase.Millis, []core.ComponentRef{{Object: alpha.ID}, {Object: cut, Start: 40}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	S := db.Seq()
	for _, id := range []core.ID{mm, cut2, cut} {
		if err := db.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(db))
	defer ts.Close()

	for _, tc := range []struct {
		path    string
		deleted bool // names an object deleted after S
	}{
		{"/v1/query?kind=video", false},
		{"/v1/objects", false},
		{"/v1/objects/cut", true},
		{"/v1/objects/alpha/element/0", false},
		{"/v1/objects/alpha/at/0", false},
		{"/v1/objects/alpha/stream", false},
		{"/v1/objects/cut2/expand", true},
		{"/v1/objects/mm/timeline", true},
		{"/v1/objects/cut2/lineage", true},
	} {
		if r := fetch(t, ts.URL+withParam(tc.path, fmt.Sprintf("as_of=%d", S))); r.status != http.StatusOK {
			t.Errorf("%s with as_of=%d: status %d, want 200: %s", tc.path, S, r.status, r.body)
		}
		if r := fetch(t, ts.URL+tc.path); tc.deleted && r.status != http.StatusNotFound {
			t.Errorf("%s live: status %d, want 404: %s", tc.path, r.status, r.body)
		}
	}
}

// TestAsOfCollectedBlobIsVersionGone: a BLOB deleted and collected by
// a checkpoint has no bytes left for a read of the past. Its object
// still answers as of before the delete — metadata is catalog state —
// but element, at, stream and expand answer 410 version_gone, never
// 500, even with the expansion warm from before the delete.
func TestAsOfCollectedBlobIsVersionGone(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err := catalog.Open(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	id, err := db.Ingest("clip", fixtures.Video(4, 16, 12, 5), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clip, _ := db.Get(id)
	S := db.Seq()
	ts := httptest.NewServer(New(db))
	defer ts.Close()
	if r := fetch(t, ts.URL+"/v1/objects/clip/expand"); r.status != http.StatusOK {
		t.Fatalf("expand before the delete: %d %s", r.status, r.body)
	}
	if err := db.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, blob.FileName(clip.Blob))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the checkpoint left the collected BLOB's file: %v", err)
	}

	asOf := fmt.Sprintf("as_of=%d", S)
	if r := fetch(t, ts.URL+"/v1/objects/clip?"+asOf); r.status != http.StatusOK {
		t.Errorf("object as of %d: %d %s", S, r.status, r.body)
	}
	for _, route := range []string{"/element/0", "/at/0", "/stream", "/expand"} {
		r := fetch(t, ts.URL+"/v1/objects/clip"+route+"?"+asOf)
		var env errorEnvelope
		if err := json.Unmarshal([]byte(r.body), &env); r.status != http.StatusGone || err != nil || env.Error.Code != CodeVersionGone {
			t.Errorf("%s as of %d: %d %s, want 410 version_gone", route, S, r.status, r.body)
		}
	}
}
