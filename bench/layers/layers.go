// Package layers times calls into each layer's exported functions,
// in process, with fixed iteration counts. Every row yields ns/op and
// allocs/op, each the median of five repetitions. Allocation counts
// repeat run to run and are what a simplification cites for "no
// change"; the timings say which layer a request's time belongs to.
//
// Rows whose name ends in _mb report per megabyte moved, not per call.
package layers

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"timedmedia/bench/seed"
	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/durable"
	"timedmedia/internal/expcache"
	"timedmedia/internal/media"
	"timedmedia/internal/query"
	"timedmedia/internal/server"
	"timedmedia/internal/telemetry"
	"timedmedia/internal/wal"
)

// Row is one layer measurement.
type Row struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
	Iters    int     `json:"iters"`
}

const reps = 5

// Catalog populations the rows run against, sized so the whole harness
// fits in a traced run: big is browse-shaped (8k objects), hist is
// audit-shaped (2.4k live objects over a 12k-mutation history), small
// (1k objects) is what the write, checkpoint and open rows use. Row
// names carry the size where cost grows with it.
var (
	bigSpec = seed.Spec{Clips: 32, ClipFrames: 25, ClipW: 64, ClipH: 48, ClipCuts: 64, CutFrames: 8,
		Meta: 4800, MetaCuts: 3000, Comps: 100}
	histSpec = seed.Spec{Clips: 8, ClipFrames: 8, ClipW: 32, ClipH: 24, ClipCuts: 8, CutFrames: 4,
		Meta: 1400, MetaCuts: 940, Comps: 40, Churn: 4800, FloorFrac: 0.1}
	smallSpec = seed.Spec{Clips: 8, ClipFrames: 25, ClipW: 64, ClipH: 48, ClipCuts: 8, CutFrames: 8,
		Meta: 600, MetaCuts: 370, Comps: 10}
)

// measure runs fn iters times per repetition and returns the median
// time and allocation count per unit; units is how many units (calls,
// megabytes, records) one fn call amounts to. prep, when set, runs
// untimed before each repetition.
func measure(name string, iters int, units float64, prep func() error, fn func() error) (Row, error) {
	ns := make([]float64, 0, reps)
	allocs := make([]float64, 0, reps)
	var ms runtime.MemStats
	for r := 0; r < reps; r++ {
		if prep != nil {
			if err := prep(); err != nil {
				return Row{}, fmt.Errorf("%s: %w", name, err)
			}
		}
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return Row{}, fmt.Errorf("%s: %w", name, err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		n := float64(iters) * units
		ns = append(ns, float64(elapsed.Nanoseconds())/n)
		allocs = append(allocs, float64(ms.Mallocs-m0)/n)
	}
	sort.Float64s(ns)
	sort.Float64s(allocs)
	return Row{Name: name, NsOp: ns[reps/2], AllocsOp: allocs[reps/2], Iters: iters}, nil
}

type harness struct {
	dir  string
	rows []Row
	err  error
}

func (h *harness) row(name string, iters int, units float64, prep func() error, fn func() error) {
	if h.err != nil {
		return
	}
	r, err := measure(name, iters, units, prep, fn)
	if err != nil {
		h.err = err
		return
	}
	h.rows = append(h.rows, r)
}

func (h *harness) sub(name string) string {
	d := filepath.Join(h.dir, name)
	if err := os.MkdirAll(d, 0o755); err != nil && h.err == nil {
		h.err = err
	}
	return d
}

// Run measures every row, using dir for the files the durable layers
// need; dir is removed again before returning.
func Run(dir string) ([]Row, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	h := &harness{dir: dir}
	h.readPath()
	h.history()
	h.writePath()
	h.logAndSnapshot()
	h.delivery()
	h.observer()
	return h.rows, h.err
}

// discard is the cheapest ResponseWriter that still behaves: handlers
// write headers and bodies, nothing keeps them.
type discard struct {
	h    http.Header
	code int
	n    int64
}

func (d *discard) Header() http.Header { return d.h }
func (d *discard) WriteHeader(c int)   { d.code = c }
func (d *discard) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

func serve(h http.Handler, target string) (*discard, error) {
	w := &discard{h: http.Header{}, code: 200}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	if w.code != http.StatusOK {
		return w, fmt.Errorf("GET %s: status %d", target, w.code)
	}
	return w, nil
}

// readPath covers the server handlers (telemetry on), the planner, the
// view lookup and as_of on the browse-shaped catalog.
func (h *harness) readPath() {
	if h.err != nil {
		return
	}
	reg := telemetry.NewRegistry()
	db := catalog.New(blob.NewMemStore(), catalog.WithVersionRetention(seed.Retention), catalog.WithTelemetry(reg))
	m, err := seed.Populate(db, bigSpec, 1)
	if err != nil {
		h.err = err
		return
	}
	srv := server.New(db, server.WithTelemetry(reg))
	name := m.Perm[len(m.Perm)/2].Name
	// The selective set starts with its attribute queries.
	sel, liveAt := m.QuerySel[0].Params, m.LiveAt[0].Params
	clip := m.Clips[0]

	h.row("server.object", 2000, 1, nil, func() error { _, err := serve(srv, "/v1/objects/"+name); return err })
	h.row("server.query_sel", 1000, 1, nil, func() error { _, err := serve(srv, "/v1/query?"+sel); return err })
	h.row("server.stream_mb", 200, float64(clip.Bytes)/1e6, nil, func() error {
		w, err := serve(srv, "/v1/objects/"+clip.Name+"/stream")
		if err == nil && w.n < clip.Bytes {
			err = fmt.Errorf("short stream: %d bytes", w.n)
		}
		return err
	})

	view := db.CurrentView()
	var tSec float64
	fmt.Sscanf(liveAt, "live_at=%f", &tSec)
	video := media.KindVideo
	h.row("query.sel", 2000, 1, nil, func() error {
		if len(query.At(view).Attr("reel", "r00100").Limit(50).Run()) == 0 {
			return fmt.Errorf("empty result")
		}
		return nil
	})
	h.row("query.live_at", 2000, 1, nil, func() error {
		if len(query.At(view).LiveAt(tSec).Limit(50).Run()) == 0 {
			return fmt.Errorf("empty result")
		}
		return nil
	})
	h.row("query.page", 200, 1, nil, func() error {
		page, total := query.At(view).Kind(video).Limit(100).RunPage(500)
		if len(page) != 100 || total < 1000 {
			return fmt.Errorf("page %d of %d", len(page), total)
		}
		return nil
	})
	h.row("catalog.view_lookup", 20000, 1, nil, func() error { _, err := view.Lookup(name); return err })

	h.asOfRow("catalog.asof_8k", 3, view, db.Seq()-100, name)
}

// asOfRow times View.AsOf at seq plus one Get of the named object.
func (h *harness) asOfRow(row string, iters int, view *catalog.View, seq uint64, name string) {
	o, err := view.Lookup(name)
	if err != nil {
		if h.err == nil {
			h.err = err
		}
		return
	}
	h.row(row, iters, 1, nil, func() error {
		a, err := view.AsOf(seq)
		if err != nil {
			return err
		}
		_, err = a.Get(o.ID)
		return err
	})
}

// history covers as_of on the audit-shaped catalog.
func (h *harness) history() {
	if h.err != nil {
		return
	}
	db := catalog.New(blob.NewMemStore(), catalog.WithVersionRetention(seed.Retention))
	m, err := seed.Populate(db, histSpec, 1)
	if err != nil {
		h.err = err
		return
	}
	h.asOfRow("catalog.asof_hist12k", 5, db.CurrentView(), m.Seq-m.Seq/20, m.Perm[0].Name)
}

func cutParams(from, to int64) []byte {
	return derive.EncodeParams(derive.EditParams{Entries: []derive.EditEntry{{Input: 0, From: from, To: to}}})
}

// writePath covers journaled adds, checkpoints, snapshot load and
// journal replay on the small catalog.
func (h *harness) writePath() {
	if h.err != nil {
		return
	}
	dir := h.sub("edit")
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		h.err = err
		return
	}
	defer store.Close()
	db, err := catalog.Open(dir, store, catalog.WithVersionRetention(seed.Retention))
	if err != nil {
		h.err = err
		return
	}
	m, err := seed.Populate(db, smallSpec, 1)
	if err != nil {
		h.err = err
		return
	}
	src, err := db.Lookup(m.Clips[0].Name)
	if err != nil {
		h.err = err
		return
	}
	// A first full snapshot gives later checkpoints a manifest to be
	// incremental against.
	if h.err = db.Save(dir); h.err != nil {
		return
	}
	n := 0
	next := func() string { n++; return fmt.Sprintf("layer-%06d", n) }
	params := cutParams(2, 10)
	h.row("catalog.add_derived", 200, 1, nil, func() error {
		_, err := db.AddDerived(next(), "video-edit", []core.ID{src.ID}, params, nil)
		return err
	})
	h.row("catalog.add_batch4", 100, 1, nil, func() error {
		items := make([]catalog.BatchItem, 4)
		for i := range items {
			items[i] = catalog.BatchItem{Name: next(), Op: "video-edit", Inputs: []core.ID{src.ID}, Params: params}
		}
		_, err := db.AddBatch(items)
		return err
	})
	dirty := func() error {
		items := make([]catalog.BatchItem, 200)
		for i := range items {
			items[i] = catalog.BatchItem{Name: next(), Op: "video-edit", Inputs: []core.ID{src.ID}, Params: params}
		}
		_, err := db.AddBatch(items)
		return err
	}
	h.row("catalog.checkpoint_incr", 1, 1, dirty, func() error { return db.Checkpoint(dir) })
	h.row("catalog.checkpoint_full", 1, 1, nil, func() error { return db.Save(dir) })
	objects := db.Len()
	if h.err == nil {
		h.err = db.CloseJournal()
	}
	h.row("catalog.open_snapshot_1k", 1, 1, nil, func() error { return reopen(dir, objects) })

	// Replay: a directory holding nothing but the journal that built
	// the same population.
	rdir := h.sub("replay")
	rstore, err := blob.OpenFileStore(rdir)
	if err != nil {
		h.err = err
		return
	}
	defer rstore.Close()
	rdb, err := catalog.Open(rdir, rstore, catalog.WithVersionRetention(seed.Retention))
	if err != nil {
		h.err = err
		return
	}
	rm, err := seed.Populate(rdb, smallSpec, 1)
	if err == nil {
		err = rdb.CloseJournal()
	}
	if err != nil {
		h.err = err
		return
	}
	h.row("catalog.open_replay_1k", 1, 1, nil, func() error { return reopen(rdir, rm.Objects) })
}

// reopen recovers the catalog in dir the way tbmserve does at start.
func reopen(dir string, objects int) error {
	st, err := blob.OpenFileStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	db, err := catalog.Open(dir, st)
	if err != nil {
		return err
	}
	if db.Len() != objects {
		return fmt.Errorf("recovered %d objects, want %d", db.Len(), objects)
	}
	return db.CloseJournal()
}

// logAndSnapshot covers the WAL and the snapshot container alone.
func (h *harness) logAndSnapshot() {
	if h.err != nil {
		return
	}
	wdir := h.sub("wal")
	j, err := wal.OpenSegmented(wdir)
	if err != nil {
		h.err = err
		return
	}
	rec := make([]byte, 200)
	batch := make([][]byte, 8)
	for i := range batch {
		batch[i] = rec
	}
	records := 0
	h.row("wal.append_sync", 200, 1, nil, func() error { records++; return j.Append(rec) })
	h.row("wal.append_batch8", 100, 1, nil, func() error { records += 8; return j.AppendBatch(batch) })
	if h.err == nil {
		h.err = j.Close()
	}
	h.row("wal.replay_rec", 1, float64(records), nil, func() error {
		n := 0
		if _, err := wal.ReplaySegments(wdir, func([]byte) error { n++; return nil }); err != nil {
			return err
		}
		if n != records {
			return fmt.Errorf("replayed %d records, appended %d", n, records)
		}
		return nil
	})

	const snapMB = 8
	payload := make([]byte, snapMB<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	path := filepath.Join(h.sub("snap"), "snapshot")
	h.row("durable.snapshot_write_mb", 1, float64(len(payload))/1e6, nil, func() error {
		return durable.WriteStreamSnapshot(path, func(w io.Writer) error { _, err := w.Write(payload); return err })
	})
	h.row("durable.snapshot_read_mb", 1, float64(len(payload))/1e6, nil, func() error {
		r, err := durable.OpenSnapshotReader(path)
		if err != nil {
			return err
		}
		defer r.Close()
		n, err := io.Copy(io.Discard, r)
		if err == nil && n != int64(len(payload)) {
			err = fmt.Errorf("read %d bytes, wrote %d", n, len(payload))
		}
		return err
	})
}

// delivery covers the expansion cache, a cold expand and BLOB reads.
func (h *harness) delivery() {
	if h.err != nil {
		return
	}
	c := expcache.New[int, []byte](64 << 10)
	val := make([]byte, 1024)
	fill := func() ([]byte, int64, error) { return val, int64(len(val)), nil }
	if _, err := c.Do(0, fill); err != nil {
		h.err = err
		return
	}
	h.row("expcache.hit", 20000, 1, nil, func() error { _, err := c.Do(0, fill); return err })
	key := 0
	h.row("expcache.miss_fill", 20000, 1, nil, func() error { key++; _, err := c.Do(key, fill); return err })

	dir := h.sub("play")
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		h.err = err
		return
	}
	defer store.Close()
	db := catalog.New(store, catalog.WithVersionRetention(seed.Retention))
	m, err := seed.Populate(db, seed.Spec{Clips: 4, ClipFrames: 50, ClipW: 160, ClipH: 120, ClipCuts: 4, CutFrames: 10,
		Meta: 32, MetaCuts: 4, Comps: 2}, 1)
	if err != nil {
		h.err = err
		return
	}
	cut, err := db.Lookup(m.Cuts[0].Name)
	if err != nil {
		h.err = err
		return
	}
	h.row("derive.expand_cold", 3, 1, nil, func() error {
		db.InvalidateCache()
		_, err := db.ExpandContext(context.Background(), cut.ID)
		return err
	})
	clip, err := db.Lookup(m.Clips[0].Name)
	if err != nil {
		h.err = err
		return
	}
	bl, err := store.Open(clip.Blob)
	if err != nil {
		h.err = err
		return
	}
	size := bl.Size()
	h.row("blob.read_mb", 50, float64(size)/1e6, nil, func() error {
		const chunk = 4096
		for off := int64(0); off < size; off += chunk {
			n := int64(chunk)
			if off+n > size {
				n = size - off
			}
			if _, err := bl.ReadSpan(off, n); err != nil {
				return err
			}
		}
		return nil
	})
}

// observer covers what the telemetry layer itself costs a request.
func (h *harness) observer() {
	reg := telemetry.NewRegistry()
	hist := reg.Histogram(telemetry.StageFamily, telemetry.StageLookup)
	h.row("telemetry.observe", 200000, 1, nil, func() error { hist.Observe(137 * time.Microsecond); return nil })
	h.row("telemetry.label_lookup", 200000, 1, nil, func() error {
		reg.Histogram(telemetry.RequestFamily, `route="object"`)
		return nil
	})
}
