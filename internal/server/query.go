package server

import (
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/media"
	"timedmedia/internal/query"
)

// GET /v1/query — the indexed read path over the whole catalog.
//
// Filters (all AND; each is answered by the matching catalog index):
//
//	kind=video                      media kind (kind index)
//	class=nonderived|derived|multimedia
//	attr.K=V                        attribute equality; repeating the
//	                                same key ORs its values
//	derived_from=NAME               transitive provenance (adjacency index)
//	live_at=SEC                     timeline covers the instant (interval index)
//	overlaps=T1,T2                  timeline overlaps [T1,T2] seconds
//	min_duration=SEC&max_duration=SEC  descriptor duration range
//	name_contains=SUB               substring of the object name
//
// Shaping: sort=id|name|duration (default id), limit=N, offset=N,
// count=1 returns {"count":N} without materializing objects. Results
// use the same paginated envelope as /v1/objects.

// parseKindName maps the wire name of a media kind back to the kind.
// "unknown" is a real kind (derived/multimedia objects carry it);
// anything else unrecognized reports ok=false.
func parseKindName(s string) (media.Kind, bool) {
	for _, k := range []media.Kind{
		media.KindUnknown, media.KindImage, media.KindAudio,
		media.KindVideo, media.KindMusic, media.KindAnimation,
	} {
		if k.String() == s {
			return k, true
		}
	}
	return media.KindUnknown, false
}

// parseClassName maps the wire name of an object class.
func parseClassName(s string) (core.Class, bool) {
	switch s {
	case "nonderived", "non-derived", "media":
		return core.ClassNonDerived, true
	case "derived":
		return core.ClassDerived, true
	case "multimedia":
		return core.ClassMultimedia, true
	}
	return 0, false
}

// attrFilters splits the attr.* query parameters into indexable
// single-value equalities and an OR-residual for keys given several
// values. The second return is the residual predicate (nil when every
// key was single-valued).
func attrFilters(q url.Values) ([]catalog.AttrEq, func(*core.Object) bool) {
	var eqs []catalog.AttrEq
	multi := map[string][]string{}
	for key, vals := range q {
		if !strings.HasPrefix(key, "attr.") {
			continue
		}
		name := strings.TrimPrefix(key, "attr.")
		if len(vals) == 1 {
			eqs = append(eqs, catalog.AttrEq{Key: name, Value: vals[0]})
			continue
		}
		multi[name] = vals
	}
	if len(multi) == 0 {
		return eqs, nil
	}
	return eqs, func(o *core.Object) bool {
		for name, vals := range multi {
			if !slices.Contains(vals, o.Attrs[name]) {
				return false
			}
		}
		return true
	}
}

// queryParams is every parameter /v1/query accepts (plus the attr.*
// namespace). Anything else is rejected with 400 bad_request: a typo
// like as_off= silently matching everything would corrupt downstream
// analysis far more than a hard error does.
var queryParams = map[string]bool{
	"kind": true, "class": true, "name_contains": true,
	"derived_from": true, "live_at": true, "overlaps": true,
	"min_duration": true, "max_duration": true, "sort": true,
	"limit": true, "offset": true, "count": true,
	"epoch": true, "as_of": true,
}

// checkQueryParams rejects unknown /v1/query parameters, reporting
// ok=false after writing the 400 reply.
func checkQueryParams(w http.ResponseWriter, params url.Values) bool {
	for key := range params {
		if queryParams[key] || strings.HasPrefix(key, "attr.") {
			continue
		}
		badRequest(w, "unknown query parameter "+strconv.Quote(key))
		return false
	}
	return true
}

// parsePage reads limit/offset, reporting ok=false after writing the
// error reply.
func parsePage(w http.ResponseWriter, q url.Values) (limit, offset int, ok bool) {
	limit, offset = -1, 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			badRequest(w, "bad limit")
			return 0, 0, false
		}
		limit = n
	}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			badRequest(w, "bad offset")
			return 0, 0, false
		}
		offset = n
	}
	return limit, offset, true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	if !checkQueryParams(w, params) {
		return
	}
	// The whole query — planner, match, pagination, summaries — runs
	// against one pinned epoch view: no lock is taken and concurrent
	// commits cannot tear the result or skew total against the page.
	// With as_of= the view narrows further, to the transaction-time
	// snapshot at that journal sequence.
	v, asOfStart, okPin := s.pin(w, r)
	if !okPin {
		return
	}
	q := query.At(v)

	if v := params.Get("kind"); v != "" {
		k, ok := parseKindName(v)
		if !ok {
			badRequest(w, "bad kind "+strconv.Quote(v))
			return
		}
		q.Kind(k)
	}
	if v := params.Get("class"); v != "" {
		c, ok := parseClassName(v)
		if !ok {
			badRequest(w, "bad class "+strconv.Quote(v)+" (want nonderived|derived|multimedia)")
			return
		}
		q.Class(c)
	}
	eqs, residual := attrFilters(params)
	for _, eq := range eqs {
		q.Attr(eq.Key, eq.Value)
	}
	if residual != nil {
		q.Where(residual)
	}
	if v := params.Get("name_contains"); v != "" {
		q.NameContains(v)
	}
	if name := params.Get("derived_from"); name != "" {
		src, err := v.Lookup(name)
		if err != nil {
			httpError(w, err)
			return
		}
		q.DerivedFrom(src.ID)
	}
	if v := params.Get("live_at"); v != "" {
		t, err := query.ParseSeconds(v)
		if err != nil {
			badRequest(w, "bad live_at")
			return
		}
		q.LiveAt(t)
	}
	if v := params.Get("overlaps"); v != "" {
		lo, hi, ok := strings.Cut(v, ",")
		t1, err1 := query.ParseSeconds(lo)
		var t2 float64
		var err2 error
		if ok {
			t2, err2 = query.ParseSeconds(hi)
		}
		if !ok || err1 != nil || err2 != nil || t2 < t1 {
			badRequest(w, "bad overlaps (want T1,T2 with T1 <= T2)")
			return
		}
		q.Overlapping(t1, t2)
	}
	minD, maxD := params.Get("min_duration"), params.Get("max_duration")
	if minD != "" || maxD != "" {
		lo, hi := 0.0, 1e18
		var err error
		if minD != "" {
			if lo, err = query.ParseSeconds(minD); err != nil {
				badRequest(w, "bad min_duration")
				return
			}
		}
		if maxD != "" {
			if hi, err = query.ParseSeconds(maxD); err != nil {
				badRequest(w, "bad max_duration")
				return
			}
		}
		q.DurationBetween(lo, hi)
	}
	switch params.Get("sort") {
	case "", "id":
	case "name":
		q.SortByName()
	case "duration":
		q.SortByDuration()
	default:
		badRequest(w, "bad sort (want id|name|duration)")
		return
	}
	limit, offset, ok := parsePage(w, params)
	if !ok {
		return
	}
	q.Limit(limit)

	if c := params.Get("count"); c == "1" || c == "true" {
		n := q.Count()
		s.asOfResolved(asOfStart)
		writeJSON(w, map[string]any{"count": n, "epoch": v.Epoch()})
		return
	}
	page, total := q.RunPage(offset)
	s.asOfResolved(asOfStart)
	writeListPage(w, s, v, page, offset, total)
}
