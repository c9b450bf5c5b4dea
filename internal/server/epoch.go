package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/interp"
	"timedmedia/internal/query"
	"timedmedia/internal/telemetry"
)

// readView is the read surface a request runs against: the pinned
// epoch view itself, or — when the request carries as_of= — a
// transaction-time snapshot reconstructed from that view's version
// chains. Both are immutable, so everything downstream (lookup,
// planner, summaries, pagination) is oblivious to which one it got.
type readView interface {
	query.Source
	Epoch() uint64
	Lookup(name string) (*core.Object, error)
	Interpretation(id blob.ID) (*interp.Interpretation, error)
}

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
//   - epoch= pin: a read may pass ?epoch=N to run against a retained
//     earlier view. Paginated clients pin the epoch of their first
//     page so later pages are mutually consistent with it instead of
//     racing writers page to page. A retired epoch, or a seq no view
//     was published at, answers 410 epoch_gone; clients drop the pin
//     and restart from the current epoch.

// pinView resolves the epoch view a live-only read runs against: the
// epoch= parameter pins a retained epoch, otherwise the current epoch
// is used (one atomic load, no locks). It sets the ETag header and
// short-circuits If-None-Match with 304. ok=false means the response
// has already been written — which includes 400 bad_request for an
// as_of= parameter: only the routes that go through pinAsOf can read
// the past, and serving live state to a client that asked for history
// would be a silent wrong answer.
func (s *Server) pinView(w http.ResponseWriter, r *http.Request) (*catalog.View, bool) {
	if r.URL.Query().Has("as_of") {
		badRequest(w, `unsupported query parameter "as_of": only /v1/query and /v1/objects/{name} read the past`)
		return nil, false
	}
	return s.pinEpoch(w, r)
}

// pinEpoch is pinView without the as_of= refusal. The ETag is the
// view's seq, so a follower caught up to its primary tags the same
// read the same way.
func (s *Server) pinEpoch(w http.ResponseWriter, r *http.Request) (*catalog.View, bool) {
	var v *catalog.View
	if e := r.URL.Query().Get("epoch"); e != "" {
		n, err := strconv.ParseUint(e, 10, 64)
		if err != nil {
			badRequest(w, "bad epoch")
			return nil, false
		}
		pinned, err := s.db.ViewAt(n)
		if err != nil {
			httpError(w, err)
			return nil, false
		}
		v = pinned
	} else {
		v = s.db.CurrentView()
	}
	etag := `"` + strconv.FormatUint(v.Epoch(), 10) + `"`
	w.Header().Set("ETag", etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return nil, false
	}
	return v, true
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

// pinAsOf pins the epoch like pinView, then narrows the view to the
// transaction-time snapshot named by as_of= (a journal sequence
// number). Without the parameter the pinned view passes through
// unchanged. A sequence below the retention floor answers 410
// version_gone; a sequence ahead of the newest commit is simply the
// latest state — "as of the future" and "now" are the same snapshot.
// ok=false means the response has been written. Composes with epoch=:
// the chains are part of the pinned view, so as_of within a pinned
// epoch reads that epoch's history.
//
// Narrowing itself is free — the as-of view resolves each read against
// the version chains on demand — so asOfStart is handed back for the
// handler to pass to asOfResolved once its first object or page is in
// hand: that interval is the asof_resolve stage. It is zero for a
// request without as_of=.
func (s *Server) pinAsOf(w http.ResponseWriter, r *http.Request) (v readView, asOfStart time.Time, ok bool) {
	pv, ok := s.pinEpoch(w, r)
	if !ok {
		return nil, asOfStart, false
	}
	a := r.URL.Query().Get("as_of")
	if a == "" {
		return pv, asOfStart, true
	}
	seq, err := strconv.ParseUint(a, 10, 64)
	if err != nil {
		badRequest(w, "bad as_of")
		return nil, asOfStart, false
	}
	start := time.Now()
	av, err := pv.AsOf(seq)
	if err != nil {
		httpError(w, err)
		return nil, asOfStart, false
	}
	return av, start, true
}

// asOfResolved closes the asof_resolve stage opened by pinAsOf.
func (s *Server) asOfResolved(asOfStart time.Time) {
	if !asOfStart.IsZero() {
		s.asOfHist.Observe(time.Since(asOfStart))
	}
}

// lookupPinned resolves {name} against the pinned view, timing the
// lookup into the stage histogram and the request trace.
func (s *Server) lookupPinned(w http.ResponseWriter, r *http.Request, v readView) (*core.Object, bool) {
	done := telemetry.StartSpan(r.Context(), "lookup")
	start := time.Now()
	obj, err := v.Lookup(r.PathValue("name"))
	s.lookupHist.Observe(time.Since(start))
	done()
	if err != nil {
		httpError(w, err)
		return nil, false
	}
	return obj, true
}
