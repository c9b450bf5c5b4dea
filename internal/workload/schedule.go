package workload

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

// Target is one stored media object an op list can read from or
// derive against.
type Target struct {
	Name     string
	Elements int
}

// Inventory is the deterministic view of the catalog an op list is
// drawn against: every object name (point reads) and the media
// targets with at least two elements (payload reads, cuts, batches).
// Both slices are sorted so the same catalog always yields the same
// inventory regardless of listing order.
type Inventory struct {
	Names []string
	Media []Target
}

// NewInventory sorts and validates the raw listing into an Inventory.
func NewInventory(names []string, media []Target) (*Inventory, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("workload: empty inventory")
	}
	inv := &Inventory{Names: append([]string(nil), names...), Media: append([]Target(nil), media...)}
	sort.Strings(inv.Names)
	sort.Slice(inv.Media, func(i, j int) bool { return inv.Media[i].Name < inv.Media[j].Name })
	return inv, nil
}

// Item is one request of an op list. Path carries the full request
// target including query parameters; Body is non-nil only for batches.
type Item struct {
	Op     string
	Method string
	Path   string
	Body   []byte
}

// runOps is the length of every op list: long enough to draw each op
// of the mix several times, short enough to record and replay in a
// second.
const runOps = 64

// mix is the weighted op mix every op list draws from, in the fixed
// order weighted draws iterate (the order is part of the
// deterministic contract). pquery is an epoch-pinned paginated query:
// Execute walks its follow-up pages.
var mix = [...]struct {
	op     string
	weight int
}{
	{"object", 3}, {"expand", 1}, {"element", 2}, {"cut", 2},
	{"batch", 1}, {"query", 2}, {"pquery", 1},
}

// Generate draws the op list for seed against inv. The result is a
// pure function of (seed, inv).
func Generate(seed int64, inv *Inventory) ([]Item, error) {
	if len(inv.Media) == 0 {
		return nil, fmt.Errorf("workload: the op mix needs media targets but the inventory has none")
	}
	rng := NewRNG(seed)
	mutSeq := 0
	items := make([]Item, runOps)
	for i := range items {
		items[i].Op = pickOp(rng)
		buildRequest(rng, &items[i], inv, seed, &mutSeq)
	}
	return items, nil
}

// pickOp draws from the weighted mix.
func pickOp(rng *RNG) string {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	n := rng.Intn(total)
	for _, m := range mix {
		n -= m.weight
		if n < 0 {
			return m.op
		}
	}
	return mix[0].op
}

// buildRequest fills the HTTP request of one drawn operation.
// Mutation names embed (seed, seq) so repeated runs with different
// seeds never collide, yet the names are fully deterministic.
func buildRequest(rng *RNG, item *Item, inv *Inventory, seed int64, mutSeq *int) {
	item.Method = http.MethodGet
	switch item.Op {
	case "object":
		item.Path = "/v1/objects/" + inv.Names[rng.Intn(len(inv.Names))]
	case "expand":
		item.Path = "/v1/objects/" + inv.Media[rng.Intn(len(inv.Media))].Name + "/expand"
	case "element":
		t := inv.Media[rng.Intn(len(inv.Media))]
		item.Path = fmt.Sprintf("/v1/objects/%s/element/%d", t.Name, rng.Intn(t.Elements))
	case "cut":
		t := inv.Media[rng.Intn(len(inv.Media))]
		from := rng.Intn(t.Elements - 1)
		to := from + 1 + rng.Intn(t.Elements-from-1)
		*mutSeq++
		out := fmt.Sprintf("w%d-%d", seed, *mutSeq)
		item.Method = http.MethodPost
		item.Path = fmt.Sprintf("/v1/objects/%s/cut?out=%s&from=%d&to=%d", t.Name, out, from, to)
	case "batch":
		t := inv.Media[rng.Intn(len(inv.Media))]
		type batchItem struct {
			Name       string          `json:"name"`
			Op         string          `json:"op"`
			InputNames []string        `json:"input_names"`
			Params     json.RawMessage `json:"params"`
		}
		n := 2 + rng.Intn(3)
		items := make([]batchItem, n)
		for k := range items {
			*mutSeq++
			from := rng.Intn(t.Elements - 1)
			items[k] = batchItem{
				Name:       fmt.Sprintf("w%d-%d", seed, *mutSeq),
				Op:         "video-edit",
				InputNames: []string{t.Name},
				Params: json.RawMessage(fmt.Sprintf(
					`{"entries":[{"input":0,"from":%d,"to":%d}]}`, from, from+1)),
			}
		}
		body, _ := json.Marshal(map[string]any{"items": items})
		item.Method = http.MethodPost
		item.Path = "/v1/objects:batch"
		item.Body = body
	case "query":
		switch rng.Intn(4) {
		case 0:
			item.Path = "/v1/query?kind=video&limit=50"
		case 1:
			item.Path = "/v1/query?derived_from=" + inv.Media[rng.Intn(len(inv.Media))].Name + "&limit=50"
		case 2:
			item.Path = fmt.Sprintf("/v1/query?live_at=%.3f&limit=50", rng.Float64()*10)
		default:
			t1 := rng.Float64() * 8
			item.Path = fmt.Sprintf("/v1/query?overlaps=%.3f,%.3f&limit=50", t1, t1+2)
		}
	case "pquery":
		// Execute fetches this first page, reads the epoch from the
		// response, and walks the remaining pages with an epoch= pin.
		item.Path = fmt.Sprintf("/v1/query?kind=video&limit=%d&offset=0", 2+rng.Intn(6))
	}
}
