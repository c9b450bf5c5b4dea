package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/telemetry"
)

// Epochs are a first-class API concept on every read route: a read
// resolves the catalog to one immutable view up front and runs the
// whole request — lookup, planner, match, pagination, expansion —
// against it, so concurrent commits never tear a response. A view's
// epoch is the journal seq its reads resolve at; a published view
// holds every acknowledged record up to it, so epochs are sparse: a
// batch takes several seqs.
//
// A read is pinned one way, and tagged one way:
//
//   - as_of= pin: a read may pass ?as_of=S to run against the catalog
//     as of journal seq S, read from the version chains. Paginated
//     clients pin the epoch of their first page so later pages are
//     mutually consistent with it instead of racing writers page to
//     page. A seq inside a batch, which no ETag names, reads the
//     batch's prefix. A seq below the version floor, or past the head
//     (a follower that has not applied it yet), answers 410
//     version_gone; clients drop the pin and restart from the head.
//     ?epoch=S is another spelling of ?as_of=S, parsed into the same
//     pin; sending both is 400.
//   - ETag: every read response, pinned or not, carries the head it
//     resolved against as a strong ETag (`ETag: "17"`). If-None-Match
//     with the head's tag answers 304 Not Modified without running the
//     handler body — a cheap "has anything changed?" poll.

// pin resolves the view a read runs against: the head (one atomic
// load, no locks), or the head read as of the seq as_of= (or epoch=)
// names. A bad or unanswerable pin is refused before anything else;
// then pin sets the ETag header to the head's epoch and short-circuits
// If-None-Match with 304. ok=false means the response has been written.
//
// Narrowing itself is free — the view resolves each read against the
// version chains on demand — so asOfStart is handed back for the
// handler to pass to asOfResolved once its first object or page is in
// hand: that interval is the asof_resolve stage. It is zero for an
// unpinned request.
func (s *Server) pin(w http.ResponseWriter, r *http.Request) (v *catalog.View, asOfStart time.Time, ok bool) {
	q := r.URL.Query()
	head := s.db.CurrentView()
	v = head
	a := q.Get("as_of")
	if e := q.Get("epoch"); e != "" {
		if a != "" {
			badRequest(w, "as_of and epoch are one pin; pass one")
			return nil, asOfStart, false
		}
		a = e
	}
	if a != "" {
		seq, err := strconv.ParseUint(a, 10, 64)
		if err != nil {
			badRequest(w, "bad as_of")
			return nil, asOfStart, false
		}
		asOfStart = time.Now()
		if v, err = head.AsOf(seq); err != nil {
			httpError(w, err)
			return nil, asOfStart, false
		}
	}
	// The ETag is the head's seq, so a follower caught up to its
	// primary tags the same read the same way.
	etag := `"` + strconv.FormatUint(head.Epoch(), 10) + `"`
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return nil, asOfStart, false
	}
	return v, asOfStart, true
}

// etagMatch reports whether an If-None-Match header value matches the
// entity tag. Weak comparison: a W/ prefix on a listed tag is
// ignored, and * matches anything.
func etagMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// asOfResolved closes the asof_resolve stage opened by pin.
func (s *Server) asOfResolved(asOfStart time.Time) {
	if !asOfStart.IsZero() {
		s.asOfHist.Observe(time.Since(asOfStart))
	}
}

// lookupPinned resolves {name} against the pinned view, timing the
// lookup into the stage histogram and the request trace, and closing
// the asof_resolve stage pin opened.
func (s *Server) lookupPinned(w http.ResponseWriter, r *http.Request, v *catalog.View, asOfStart time.Time) (*core.Object, bool) {
	done := telemetry.StartSpan(r.Context(), "lookup")
	start := time.Now()
	obj, err := v.Lookup(r.PathValue("name"))
	s.lookupHist.Observe(time.Since(start))
	done()
	s.asOfResolved(asOfStart)
	if err != nil {
		httpError(w, err)
		return nil, false
	}
	return obj, true
}
