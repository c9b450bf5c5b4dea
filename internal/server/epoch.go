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
// epoch is the journal seq it holds every acknowledged record up to,
// so epochs are sparse: a batch takes several seqs.
//
// The resolved epoch is exposed two ways:
//
//   - ETag: every read response carries the epoch as a strong ETag
//     (`ETag: "17"`). If-None-Match with the current epoch's tag
//     answers 304 Not Modified without running the handler body — a
//     cheap "has anything changed?" poll.
//   - epoch= pin: a read may pass ?epoch=N to run against an earlier
//     epoch, read from the version chains. Paginated clients pin the
//     epoch of their first page so later pages are mutually consistent
//     with it instead of racing writers page to page. An epoch below
//     the version floor answers 410 version_gone, one past the current
//     epoch 410 epoch_gone; clients drop the pin and restart from the
//     current epoch. A seq inside a batch, which no ETag names, reads
//     the batch's prefix.

// pin resolves the view a read runs against: the current epoch (one
// atomic load, no locks), or the one epoch= names. It sets the ETag
// header to that epoch and short-circuits If-None-Match with 304. Then
// as_of= (a journal seq) narrows the view to the transaction-time
// snapshot at that seq, without moving the ETag: a seq below the
// version floor answers 410 version_gone, and one at or past the
// pinned epoch is that epoch's own state — "as of the future" and
// "now" are the same snapshot. ok=false means the response has been
// written.
//
// Narrowing itself is free — the view resolves each read against the
// version chains on demand — so asOfStart is handed back for the
// handler to pass to asOfResolved once its first object or page is in
// hand: that interval is the asof_resolve stage. It is zero for a
// request without as_of=.
func (s *Server) pin(w http.ResponseWriter, r *http.Request) (v *catalog.View, asOfStart time.Time, ok bool) {
	q := r.URL.Query()
	v = s.db.CurrentView()
	if e := q.Get("epoch"); e != "" {
		n, err := strconv.ParseUint(e, 10, 64)
		if err != nil {
			badRequest(w, "bad epoch")
			return nil, asOfStart, false
		}
		if v, err = s.db.ViewAt(n); err != nil {
			httpError(w, err)
			return nil, asOfStart, false
		}
	}
	// The ETag is the view's seq, so a follower caught up to its
	// primary tags the same read the same way.
	etag := `"` + strconv.FormatUint(v.Epoch(), 10) + `"`
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return nil, asOfStart, false
	}
	a := q.Get("as_of")
	if a == "" {
		return v, asOfStart, true
	}
	seq, err := strconv.ParseUint(a, 10, 64)
	if err != nil {
		badRequest(w, "bad as_of")
		return nil, asOfStart, false
	}
	asOfStart = time.Now()
	if v, err = v.AsOf(seq); err != nil {
		httpError(w, err)
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
