package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"timedmedia/bench/rng"
	"timedmedia/bench/seed"
	"timedmedia/bench/specs"
)

type opKind int

const (
	opObject opKind = iota
	opQuerySel
	opQueryPage
	opStream
	opElement
	opExpand
	opWrite
	opBatch
	opAsOf
	opAsOfQuery
	opTimeline
	opLineage
	numOps
)

var opNames = [numOps]string{
	"object", "query_sel", "query_page", "stream", "element", "expand",
	"write", "batch", "asof", "asof_query", "timeline", "lineage",
}

func opByName(name string) (opKind, bool) {
	for k, n := range opNames {
		if n == name {
			return opKind(k), true
		}
	}
	return 0, false
}

func (k opKind) mutates() bool { return k == opWrite || k == opBatch }

// Fixed request parameters: one shape per latency metric.
const (
	batchItems = 4
	pageLimit  = 100
	pageWalk   = 10 // pages a query_page cursor cycles through
	rywWindow  = 32 // read-your-write reads pick among this many newest writes
)

// op is one precomputed request with everything needed to judge its
// reply. Nothing is drawn while the clock runs.
type op struct {
	Kind   opKind
	Method string
	Path   string
	Body   string
	Status int    // the one correct status
	Name   string // expected "name" (object, asof, expand, write)
	Rows   int    // expected rows (query_sel, asof_query, query_page) or items (batch, timeline)
	Total  int    // query_page: total must be at least this
	Elems  int    // stream, expand: element count
	Bytes  int64  // stream: payload bytes; element: body length
	Writes []string
}

// kindCounts sizes a list of total ops: every probe op gets its fixed
// sample count (scaled with the list), the signature mix shares what
// is left by weight. readOnly drops the mutating ops.
func kindCounts(w *specs.Workload, total int, scale float64, readOnly bool) ([numOps]int, error) {
	var counts [numOps]int
	left := total
	for name, n := range w.Probes {
		k, ok := opByName(name)
		if !ok {
			return counts, fmt.Errorf("spec %s: unknown probe op %q", w.Name, name)
		}
		if _, dup := w.Mix[name]; dup {
			return counts, fmt.Errorf("spec %s: op %q is both signature and probe", w.Name, name)
		}
		if readOnly && k.mutates() {
			continue
		}
		c := int(math.Round(float64(n) * scale))
		if c < 1 {
			c = 1
		}
		counts[k] = c
		left -= c
	}
	type share struct {
		k    opKind
		w    int
		frac float64
	}
	var shares []share
	weight := 0
	for name, wt := range w.Mix {
		k, ok := opByName(name)
		if !ok {
			return counts, fmt.Errorf("spec %s: unknown mix op %q", w.Name, name)
		}
		if readOnly && k.mutates() {
			continue
		}
		shares = append(shares, share{k: k, w: wt})
		weight += wt
	}
	if left < len(shares) || weight == 0 {
		return counts, fmt.Errorf("spec %s: %d ops leave no room for the signature mix beside the probes", w.Name, total)
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].k < shares[j].k })
	given := 0
	for i := range shares {
		exact := float64(left) * float64(shares[i].w) / float64(weight)
		counts[shares[i].k] = int(exact)
		shares[i].frac = exact - math.Floor(exact)
		given += int(exact)
	}
	// Largest remainders take the ops integer division left over.
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].frac > shares[j].frac })
	for i := 0; given < left; i, given = i+1, given+1 {
		counts[shares[i%len(shares)].k]++
	}
	return counts, nil
}

// schedule is the per-client op lists of one slice of a run.
type schedule struct {
	clients [][]op
	counts  [numOps]int
}

// hash fingerprints every request and expectation in the schedule.
func (s *schedule) hash() string {
	h := sha256.New()
	for c, ops := range s.clients {
		fmt.Fprintf(h, "client %d\n", c)
		for _, o := range ops {
			fmt.Fprintf(h, "%d %s %s %s %d %s %d %d %d %d\n",
				o.Kind, o.Method, o.Path, o.Body, o.Status, o.Name, o.Rows, o.Total, o.Elems, o.Bytes)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// generator draws op parameters for one client.
type generator struct {
	w       *specs.Workload
	m       *seed.Manifest
	r       *rng.RNG
	tag     string
	client  int
	clipPop []int // popularity rank → clip index
	cutPop  []int
	zipfC   *rng.Zipf
	zipfX   *rng.Zipf
	written []string
	nWrites int
	page    int
}

// buildSchedule lays out one slice: kinds are shuffled once for the
// whole slice and dealt round-robin, then each client's parameters
// are drawn from its own stream in list order (so a read-your-write
// read knows what that client has written by then). tag namespaces
// the names the slice creates.
func buildSchedule(w *specs.Workload, m *seed.Manifest, seedVal uint64, tag string, total int, scale float64, nClients int, readOnly bool) (*schedule, error) {
	counts, err := kindCounts(w, total, scale, readOnly)
	if err != nil {
		return nil, err
	}
	kinds := make([]opKind, 0, total)
	for k, n := range counts {
		for i := 0; i < n; i++ {
			kinds = append(kinds, opKind(k))
		}
	}
	root := rng.New(seedVal).Fork(w.Name + "/" + tag)
	order := root.Fork("order")
	order.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	// One popularity ranking per slice, shared by the clients: the
	// same few clips are hot for everybody.
	pop := root.Fork("popularity")
	clipPop := permutation(pop, len(m.Clips))
	cutPop := permutation(pop, len(m.Cuts))

	s := &schedule{clients: make([][]op, nClients), counts: counts}
	gens := make([]*generator, nClients)
	for c := range gens {
		g := &generator{w: w, m: m, r: root.Fork(fmt.Sprintf("client%d", c)), tag: tag, client: c,
			clipPop: clipPop, cutPop: cutPop, page: c * pageWalk / nClients}
		if w.Zipf > 0 {
			g.zipfC = rng.NewZipf(len(m.Clips), w.Zipf)
			g.zipfX = rng.NewZipf(len(m.Cuts), w.Zipf)
		}
		gens[c] = g
	}
	for i, k := range kinds {
		c := i % nClients
		o, err := gens[c].draw(k)
		if err != nil {
			return nil, err
		}
		s.clients[c] = append(s.clients[c], o)
	}
	return s, nil
}

func permutation(r *rng.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func (g *generator) clip() seed.Clip {
	if g.zipfC != nil {
		return g.m.Clips[g.clipPop[g.zipfC.Draw(g.r)]]
	}
	return g.m.Clips[g.r.Intn(len(g.m.Clips))]
}

func (g *generator) cut() seed.Cut {
	if g.zipfX != nil {
		return g.m.Cuts[g.cutPop[g.zipfX.Draw(g.r)]]
	}
	return g.m.Cuts[g.r.Intn(len(g.m.Cuts))]
}

func (g *generator) newName() string {
	g.nWrites++
	return fmt.Sprintf("%s-c%d-%06d", g.tag, g.client, g.nWrites)
}

// editRange draws the fixed-length frame range every cut selects.
func (g *generator) editRange() (from, to int) {
	s := g.w.Seed
	from = g.r.Intn(s.ClipFrames - s.CutFrames + 1)
	return from, from + s.CutFrames
}

func (g *generator) draw(k opKind) (op, error) {
	m := g.m
	switch k {
	case opObject:
		name := m.Perm[g.r.Intn(len(m.Perm))].Name
		if len(g.written) > 0 && g.r.Float64() < g.w.RYW {
			lo := len(g.written) - rywWindow
			if lo < 0 {
				lo = 0
			}
			name = g.written[lo+g.r.Intn(len(g.written)-lo)]
		}
		return op{Kind: k, Method: http.MethodGet, Path: "/v1/objects/" + name, Status: 200, Name: name}, nil
	case opQuerySel:
		if len(m.QuerySel) == 0 {
			return op{}, fmt.Errorf("%s: seeded catalog has no selective query", g.w.Name)
		}
		q := m.QuerySel[g.r.Intn(len(m.QuerySel))]
		return op{Kind: k, Method: http.MethodGet, Path: "/v1/query?" + q.Params, Status: 200, Rows: q.Want}, nil
	case opQueryPage:
		if m.PageTotal < pageWalk*pageLimit {
			return op{}, fmt.Errorf("%s: kind=%s has %d objects, a page walk needs %d", g.w.Name, m.PageKind, m.PageTotal, pageWalk*pageLimit)
		}
		off := (g.page % pageWalk) * pageLimit
		g.page++
		return op{Kind: k, Method: http.MethodGet,
			Path:   fmt.Sprintf("/v1/query?kind=%s&limit=%d&offset=%d", m.PageKind, pageLimit, off),
			Status: 200, Rows: pageLimit, Total: m.PageTotal}, nil
	case opStream:
		c := g.clip()
		return op{Kind: k, Method: http.MethodGet, Path: "/v1/objects/" + c.Name + "/stream",
			Status: 200, Elems: len(c.ElemBytes), Bytes: c.Bytes}, nil
	case opElement:
		c := g.clip()
		i := g.r.Intn(len(c.ElemBytes))
		return op{Kind: k, Method: http.MethodGet, Path: fmt.Sprintf("/v1/objects/%s/element/%d", c.Name, i),
			Status: 200, Bytes: int64(c.ElemBytes[i])}, nil
	case opExpand:
		c := g.cut()
		return op{Kind: k, Method: http.MethodGet, Path: "/v1/objects/" + c.Name + "/expand",
			Status: 200, Name: c.Name, Elems: c.Elements}, nil
	case opWrite:
		src := m.Clips[g.r.Intn(len(m.Clips))]
		from, to := g.editRange()
		out := g.newName()
		g.written = append(g.written, out)
		return op{Kind: k, Method: http.MethodPost,
			Path:   fmt.Sprintf("/v1/objects/%s/cut?out=%s&from=%d&to=%d", src.Name, out, from, to),
			Status: 201, Name: out, Writes: []string{out}}, nil
	case opBatch:
		type item struct {
			Name       string          `json:"name"`
			Op         string          `json:"op"`
			InputNames []string        `json:"input_names"`
			Params     json.RawMessage `json:"params"`
		}
		items := make([]item, batchItems)
		names := make([]string, batchItems)
		for i := range items {
			src := m.Clips[g.r.Intn(len(m.Clips))]
			from, to := g.editRange()
			names[i] = g.newName()
			items[i] = item{Name: names[i], Op: "video-edit", InputNames: []string{src.Name},
				Params: json.RawMessage(fmt.Sprintf(`{"entries":[{"input":0,"from":%d,"to":%d}]}`, from, to))}
		}
		body, err := json.Marshal(map[string]any{"items": items})
		if err != nil {
			return op{}, err
		}
		g.written = append(g.written, names...)
		return op{Kind: k, Method: http.MethodPost, Path: "/v1/objects:batch", Body: string(body),
			Status: 201, Rows: batchItems, Writes: names}, nil
	case opAsOf:
		seq, gone := g.asOfSeq()
		if gone {
			name := m.Perm[g.r.Intn(len(m.Perm))].Name
			return op{Kind: k, Method: http.MethodGet, Path: fmt.Sprintf("/v1/objects/%s?as_of=%d", name, seq), Status: 410}, nil
		}
		name := g.aliveAt(seq)
		return op{Kind: k, Method: http.MethodGet, Path: fmt.Sprintf("/v1/objects/%s?as_of=%d", name, seq),
			Status: 200, Name: name}, nil
	case opAsOfQuery:
		if len(m.LiveAt) == 0 {
			return op{}, fmt.Errorf("%s: seeded catalog has no live_at query", g.w.Name)
		}
		q := m.LiveAt[g.r.Intn(len(m.LiveAt))]
		seq, gone := g.asOfSeq()
		o := op{Kind: k, Method: http.MethodGet, Path: fmt.Sprintf("/v1/query?%s&as_of=%d", q.Params, seq), Status: 200, Rows: q.Want}
		if gone {
			o.Status, o.Rows = 410, 0
		}
		return o, nil
	case opTimeline:
		name := m.Comps[g.r.Intn(len(m.Comps))]
		return op{Kind: k, Method: http.MethodGet, Path: "/v1/objects/" + name + "/timeline", Status: 200, Rows: seed.CompComponents}, nil
	case opLineage:
		name := m.Cuts[g.r.Intn(len(m.Cuts))].Name
		return op{Kind: k, Method: http.MethodGet, Path: "/v1/objects/" + name + "/lineage", Status: 200}, nil
	}
	return op{}, fmt.Errorf("unknown op kind %d", k)
}

// asOfSeq draws a transaction-time target over the seeded history:
// most from its last tenth (auditors ask about recent changes), the
// rest uniform over what retention kept, and a spec-given share below
// the floor, where gone reports that 410 is the only right answer.
func (g *generator) asOfSeq() (seq uint64, gone bool) {
	m := g.m
	u := g.r.Float64()
	switch {
	case u < g.w.BelowFloor && m.Floor > 1:
		return 1 + uint64(g.r.Intn(int(m.Floor-1))), true
	case u < g.w.BelowFloor+0.70:
		lo := m.Seq - m.Seq/10
		if lo < m.Floor {
			lo = m.Floor
		}
		return lo + uint64(g.r.Intn(int(m.Seq-lo)+1)), false
	default:
		return m.Floor + uint64(g.r.Intn(int(m.Seq-m.Floor)+1)), false
	}
}

// aliveAt picks a name visible at seq: usually one that is still
// live, sometimes — when the history has any — one that has since
// been deleted, which only an as_of read can still see.
func (g *generator) aliveAt(seq uint64) string {
	m := g.m
	hi := sort.Search(len(m.Churn), func(i int) bool { return m.Churn[i].Born > seq })
	lo := sort.Search(len(m.Churn), func(i int) bool { return m.Churn[i].Died > seq })
	if lo < hi && g.r.Float64() < 0.3 {
		return m.Churn[lo+g.r.Intn(hi-lo)].Name
	}
	n := sort.Search(len(m.Perm), func(i int) bool { return m.Perm[i].Born > seq })
	return m.Perm[g.r.Intn(n)].Name
}
