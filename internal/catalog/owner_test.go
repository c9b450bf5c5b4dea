package catalog

import (
	"cmp"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/interp"
	"timedmedia/internal/timebase"
)

// hashTreap folds a treap into h node for node: key, value, size,
// owner token and shape. A node changed in place anywhere shows.
func hashTreap[K cmp.Ordered, V any](h hash.Hash64, n *tnode[K, V], val func(V) string) {
	if n == nil {
		h.Write([]byte{'.'})
		return
	}
	fmt.Fprintf(h, "(%v=%s #%d o%d ", n.k, val(n.v), n.size, n.own)
	hashTreap(h, n.l, val)
	hashTreap(h, n.r, val)
	h.Write([]byte{')'})
}

// treapSum is hashTreap's sum for one treap, for nested values.
func treapSum[K cmp.Ordered, V any](m tmap[K, V], val func(V) string) string {
	h := fnv.New64a()
	hashTreap(h, m.root, val)
	return fmt.Sprintf("%x", h.Sum64())
}

func hashSpans(h hash.Hash64, n *spanNode) {
	if n == nil {
		h.Write([]byte{'.'})
		return
	}
	fmt.Fprintf(h, "(%v %v p%d o%d m%v ", n.id, n.span, n.prio, n.own, n.maxEnd)
	hashSpans(h, n.left)
	hashSpans(h, n.right)
	h.Write([]byte{')'})
}

func chainString[T any](c *chain[T]) string {
	s := fmt.Sprintf("%p %q", c, c.name)
	for _, e := range c.entries {
		s += fmt.Sprintf(" %d:%p", e.seq, e.val)
	}
	return s
}

// renderView hashes everything a view's state holds, node for node:
// the object and interpretation chains, the name directory, every
// index family and the interval treap, and the counters beside them.
func renderView(v *View) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "seq %d count %d interps %d floor %d\n", v.seq, v.count, v.interpCount, v.verFloor)
	hashTreap(h, v.vers.root, chainString[core.Object])
	hashTreap(h, v.chainsByName.root, func(ids []core.ID) string { return fmt.Sprint(ids) })
	hashTreap(h, v.interpVers.root, chainString[interp.Interpretation])
	idsetSum := func(s idset) string { return treapSum(s, func(struct{}) string { return "" }) }
	hashTreap(h, v.ix.kind.root, idsetSum)
	hashTreap(h, v.ix.class.root, idsetSum)
	hashTreap(h, v.ix.attr.root, func(vals tmap[string, idset]) string { return treapSum(vals, idsetSum) })
	hashTreap(h, v.ix.deps.root, idsetSum)
	hashTreap(h, v.ix.blob.root, idsetSum)
	hashTreap(h, v.ix.spans.byID.root, func(s Span) string { return fmt.Sprint(s) })
	hashSpans(h, v.ix.spans.root)
	return h.Sum64()
}

// TestEpochPinnedViewSurvivesOwnedEdits pins a view, makes about a
// thousand later commits — adds, derivations, batches, compositions,
// syncs, deletes, captures and BLOB collections, and commits that fail
// validation part way — and renders the pinned view again: every node
// it reaches must be exactly as it was. A later edit changes in place
// only the nodes its own token made (pmap.go), and view retires the
// token of the edit it freezes; a token left live would let the next
// edit change nodes the pinned view reaches.
func TestEpochPinnedViewSurvivesOwnedEdits(t *testing.T) {
	db := New(blob.NewMemStore(), WithVersionRetention(8))
	ingest := func(name string, seed int64) *core.Object {
		t.Helper()
		id, err := db.Ingest(name, genVideo(4, seed), IngestOptions{Attrs: map[string]string{"role": "clip"}})
		if err != nil {
			t.Fatal(err)
		}
		o, err := db.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	clip := ingest("clip", 1)
	other := ingest("other", 2)
	mm, err := db.AddMultimedia("show", timebase.Millis, []core.ComponentRef{{Object: clip.ID}, {Object: other.ID, Start: 500}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var leaves []core.ID // objects nothing references: deletable
	for i := 0; i < 24; i++ {
		id, err := db.AddNonDerived(fmt.Sprintf("early-%d", i), clip.Blob, clip.Track, map[string]string{"k": fmt.Sprint(i % 5)})
		if err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, id)
	}
	// The pinned view is a batch's: its edit made nodes on every path
	// the batch touched.
	ids, err := db.AddBatch([]BatchItem{
		{Name: "b-src", Blob: other.Blob, Track: other.Track, Attrs: map[string]string{"k": "1"}},
		{Name: "b-cut", Op: "video-edit", InputNames: []string{"b-src"}, Params: cutParams(0, 2)},
		{Name: "b-leaf", Blob: clip.Blob, Track: clip.Track, Attrs: map[string]string{"k": "2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	leaves = append(leaves, ids[1], ids[2])

	pinned := db.CurrentView()
	before := renderView(pinned)

	commits := 0
	for i := 0; commits < 1000; i++ {
		switch i % 6 {
		case 0:
			id, err := db.AddNonDerived(fmt.Sprintf("n-%d", i), clip.Blob, clip.Track, map[string]string{"k": fmt.Sprint(i % 5), "i": fmt.Sprint(i)})
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, id)
		case 1:
			id, err := db.AddDerived(fmt.Sprintf("d-%d", i), "video-edit", []core.ID{clip.ID}, cutParams(0, 2), nil)
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, id)
		case 2:
			got, err := db.AddBatch([]BatchItem{
				{Name: fmt.Sprintf("bs-%d", i), Blob: other.Blob, Track: other.Track, Attrs: map[string]string{"k": "3"}},
				{Name: fmt.Sprintf("bc-%d", i), Op: "video-edit", InputNames: []string{fmt.Sprintf("bs-%d", i)}, Params: cutParams(1, 3)},
				{Name: fmt.Sprintf("bl-%d", i), Blob: clip.Blob, Track: clip.Track},
				{Name: fmt.Sprintf("bd-%d", i), Op: "video-edit", Inputs: []core.ID{other.ID}, Params: cutParams(0, 1)},
			})
			if err != nil {
				t.Fatal(err)
			}
			leaves = append(leaves, got[1], got[2], got[3])
		case 3:
			// Oldest first, so the pinned view's own leaves go early.
			if err := db.Delete(leaves[0]); err != nil {
				t.Fatal(err)
			}
			leaves = leaves[1:]
		case 4:
			if err := db.AddSync(mm, 0, 1, int64(i%7)); err != nil {
				t.Fatal(err)
			}
		default:
			// A capture, a composition over it, and its collection once
			// the composition and the capture are deleted again; then a
			// batch and a delete that fail validation, after their
			// edits changed nodes.
			cp := ingest(fmt.Sprintf("cap-%d", i), int64(i))
			show, err := db.AddMultimedia(fmt.Sprintf("cs-%d", i), timebase.Millis, []core.ComponentRef{{Object: cp.ID, Start: int64(i)}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Delete(show); err != nil {
				t.Fatal(err)
			}
			if err := db.Delete(cp.ID); err != nil {
				t.Fatal(err)
			}
			commits += 3
			if _, err := db.AddBatch([]BatchItem{
				{Name: fmt.Sprintf("f-%d", i), Blob: clip.Blob, Track: clip.Track, Attrs: map[string]string{"k": "4"}},
				{Name: fmt.Sprintf("f-%d", i)},
			}); err == nil {
				t.Fatal("batch with a duplicate name committed")
			}
			if err := db.Delete(clip.ID); !errors.Is(err, ErrInUse) {
				t.Fatalf("delete of a referenced clip: %v", err)
			}
		}
		commits++
	}

	if after := renderView(pinned); after != before {
		t.Fatalf("pinned view at seq %d changed under %d later commits: %x → %x", pinned.seq, commits, before, after)
	}
	if err := pinned.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := pinned.VerifyVersions(); err != nil {
		t.Fatal(err)
	}
	if err := db.VerifyIndexes(); err != nil {
		t.Fatal(err)
	}
}
