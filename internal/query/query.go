// Package query provides a composable query layer over the catalog —
// the "sophisticated querying" Section 1.2 argues structural
// representation makes possible. Filters on kind, class, quality,
// duration, attributes, provenance and timeline position compose into
// one query; results can be ordered and limited.
//
// Indexable filters (Kind, Class, Attr, DerivedFrom, LiveAt/Overlapping)
// are accumulated into a catalog.IndexedQuery and answered by the
// catalog's secondary indexes — the planner picks the most selective
// index and falls back to a scan only when no filter is indexable.
// The remaining filters (Quality, NameContains, DurationBetween,
// Where) run as a residual predicate over the candidates. Limit is
// pushed into the catalog when no sort is requested, so matches past
// the cap are never cloned.
//
// Provenance filters (DerivedFrom, UsedBy) traverse the derivation and
// composition relationships, answering "which objects were produced
// from this take?" and "what would break if this BLOB were deleted?" —
// the manipulations Section 4.2 says derivation objects let the
// database keep track of and query. They are answered from the
// catalog's provenance adjacency index rather than a per-call graph
// walk.
package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/media"
)

// Q is a query under construction. Build with New or At, chain
// filters, then Run. A Q is single-use.
type Q struct {
	v     *catalog.View
	sel   catalog.IndexedQuery
	resid []func(*core.Object) bool
	order func(a, b *core.Object) bool
	limit int
}

// New starts a query against db's current epoch.
func New(db *catalog.DB) *Q {
	return At(db.CurrentView())
}

// At starts a query pinned to v, so plan, match and pagination all
// read one immutable epoch regardless of concurrent writers (the HTTP
// layer's epoch= parameter does exactly this). A view that reads the
// past (View.AsOf, DB.ViewAt) answers as of its seq.
func At(v *catalog.View) *Q {
	return &Q{v: v, limit: -1}
}

// Kind keeps media objects of the given kind.
func (q *Q) Kind(k media.Kind) *Q {
	if q.sel.Kind == nil {
		q.sel.Kind = &k
		return q
	}
	// A second Kind filter still ANDs (matching nothing unless equal).
	q.resid = append(q.resid, func(o *core.Object) bool { return o.Kind == k })
	return q
}

// Class keeps objects of the given class (non-derived, derived,
// multimedia).
func (q *Q) Class(c core.Class) *Q {
	if q.sel.Class == nil {
		q.sel.Class = &c
		return q
	}
	q.resid = append(q.resid, func(o *core.Object) bool { return o.Class == c })
	return q
}

// Quality keeps media objects whose descriptor carries the quality
// factor.
func (q *Q) Quality(want media.Quality) *Q {
	q.resid = append(q.resid, func(o *core.Object) bool {
		return o.Desc != nil && o.Desc.QualityFactor() == want
	})
	return q
}

// Attr keeps objects whose attribute key equals value.
func (q *Q) Attr(key, value string) *Q {
	q.sel.Attrs = append(q.sel.Attrs, catalog.AttrEq{Key: key, Value: value})
	return q
}

// NameContains keeps objects whose name contains the substring.
func (q *Q) NameContains(sub string) *Q {
	q.resid = append(q.resid, func(o *core.Object) bool { return strings.Contains(o.Name, sub) })
	return q
}

// DurationBetween keeps media objects whose descriptor duration lies
// in [minSec, maxSec] seconds. Objects without a timed descriptor are
// excluded.
func (q *Q) DurationBetween(minSec, maxSec float64) *Q {
	q.resid = append(q.resid, func(o *core.Object) bool {
		if o.Desc == nil || !o.Desc.TimeSystem().Valid() {
			return false
		}
		sec := o.Desc.TimeSystem().Seconds(o.Desc.Duration())
		return sec >= minSec && sec <= maxSec
	})
	return q
}

// DerivedFrom keeps objects whose derivation/composition ancestry
// (transitively) includes src.
func (q *Q) DerivedFrom(src core.ID) *Q {
	q.sel.Reach = append(q.sel.Reach, src)
	return q
}

// LiveAt keeps objects whose presentation timeline covers the instant
// sec (in seconds): timed media objects are live on [0, duration);
// multimedia objects are live wherever a timed component is placed on
// their composition axis. Objects without a timed extent never match.
func (q *Q) LiveAt(sec float64) *Q {
	q.sel.Spans = append(q.sel.Spans, catalog.Span{Start: sec, End: sec})
	return q
}

// Overlapping keeps objects whose presentation timeline overlaps the
// closed window [t1, t2] seconds (see LiveAt for what the timeline of
// each object class is).
func (q *Q) Overlapping(t1, t2 float64) *Q {
	q.sel.Spans = append(q.sel.Spans, catalog.Span{Start: t1, End: t2})
	return q
}

// ParseSeconds parses a time bound given as text, for LiveAt,
// Overlapping and DurationBetween. NaN is refused: it compares false
// against every bound, so a filter on it would silently match nothing.
// ±Inf is an open bound and stays accepted.
func ParseSeconds(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && math.IsNaN(f) {
		err = fmt.Errorf("%q is not a number", s)
	}
	return f, err
}

// Where adds an arbitrary predicate.
func (q *Q) Where(pred func(*core.Object) bool) *Q {
	q.resid = append(q.resid, pred)
	return q
}

// SortByName orders results by name.
func (q *Q) SortByName() *Q {
	q.order = func(a, b *core.Object) bool { return a.Name < b.Name }
	return q
}

// SortByDuration orders timed results by descriptor duration in
// seconds, untimed objects last.
func (q *Q) SortByDuration() *Q {
	sec := func(o *core.Object) float64 {
		if o.Desc == nil || !o.Desc.TimeSystem().Valid() {
			return -1
		}
		return o.Desc.TimeSystem().Seconds(o.Desc.Duration())
	}
	q.order = func(a, b *core.Object) bool {
		sa, sb := sec(a), sec(b)
		if sa < 0 {
			return false
		}
		if sb < 0 {
			return true
		}
		return sa < sb
	}
	return q
}

// Limit caps the result count.
func (q *Q) Limit(n int) *Q {
	q.limit = n
	return q
}

// pred combines the residual (non-indexable) filters into one
// predicate, nil when there are none.
func (q *Q) pred() func(*core.Object) bool {
	if len(q.resid) == 0 {
		return nil
	}
	filters := q.resid
	return func(o *core.Object) bool {
		for _, f := range filters {
			if !f(o) {
				return false
			}
		}
		return true
	}
}

// Run executes the query. Default order is by ID; without an explicit
// sort the limit is pushed into the catalog so matches past the cap
// are never cloned.
func (q *Q) Run() []*core.Object {
	if q.order == nil {
		return q.v.SelectIndexed(q.sel, q.pred(), q.limit)
	}
	out := q.v.SelectIndexed(q.sel, q.pred(), -1)
	sort.SliceStable(out, func(a, b int) bool { return q.order(out[a], out[b]) })
	if q.limit >= 0 && len(out) > q.limit {
		out = out[:q.limit]
	}
	return out
}

// RunPage executes the query and returns the page
// [offset, offset+limit) of the full result plus the total match
// count — the pagination primitive the HTTP query endpoint uses.
// Without an explicit sort only the returned page is cloned; a sorted
// query must materialize every match before slicing the page out.
func (q *Q) RunPage(offset int) ([]*core.Object, int) {
	if offset < 0 {
		offset = 0
	}
	if q.order == nil {
		return q.v.SelectPage(q.sel, q.pred(), offset, q.limit)
	}
	all := q.v.SelectIndexed(q.sel, q.pred(), -1)
	sort.SliceStable(all, func(a, b int) bool { return q.order(all[a], all[b]) })
	total := len(all)
	if offset >= total {
		return nil, total
	}
	all = all[offset:]
	if q.limit >= 0 && len(all) > q.limit {
		all = all[:q.limit]
	}
	return all, total
}

// Count executes the query and returns the number of matches without
// cloning a single object. Like Run, the count respects Limit.
func (q *Q) Count() int {
	return q.v.CountIndexed(q.sel, q.pred(), q.limit)
}

// UsedBy returns every object whose derivation inputs or composition
// components reference id, directly or transitively — the dependency
// closure a database must know before deleting media. Answered from
// the provenance adjacency index.
func UsedBy(db *catalog.DB, id core.ID) []*core.Object {
	return New(db).DerivedFrom(id).Run()
}
