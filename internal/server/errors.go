package server

import (
	"errors"
	"net/http"

	"timedmedia/internal/catalog"
	"timedmedia/internal/interp"
)

// API errors are returned as a JSON envelope with a stable machine
// code and a human message:
//
//	{"error":{"code":"not_found","message":"catalog: object not found: \"x\""}}
//
// The code strings are part of the API: clients switch on them, so
// they never change even when the message wording does. The HTTP
// status mapping is unchanged from the pre-envelope plain-text errors.

// Error codes.
const (
	CodeNotFound     = "not_found"
	CodeNoTrack      = "no_track"
	CodeNoElement    = "no_element"
	CodeNotMedia     = "not_media"
	CodeNotComposite = "not_composite"
	CodeCannotExpand = "cannot_expand"
	CodeNoInterp     = "no_interpretation"
	CodeDupName      = "duplicate_name"
	CodeJournal      = "journal_failed"
	CodeBadRequest   = "bad_request"
	CodeVersionGone  = "version_gone"
	CodeOverloaded   = "overloaded"
	CodeReadOnly     = "read_only"
	CodeNotReady     = "not_ready"
	CodeInternal     = "internal"
)

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the JSON error shape of every API route.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// classify maps an error to its HTTP status and stable code.
func classify(err error) (status int, code string) {
	switch {
	case errors.Is(err, catalog.ErrNotFound):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, interp.ErrNoTrack):
		return http.StatusNotFound, CodeNoTrack
	case errors.Is(err, interp.ErrNoElement):
		return http.StatusNotFound, CodeNoElement
	case errors.Is(err, catalog.ErrNotComposite):
		return http.StatusBadRequest, CodeNotComposite
	case errors.Is(err, catalog.ErrNotMedia):
		return http.StatusBadRequest, CodeNotMedia
	case errors.Is(err, catalog.ErrCannotExpand):
		return http.StatusBadRequest, CodeCannotExpand
	case errors.Is(err, catalog.ErrNoInterp):
		return http.StatusBadRequest, CodeNoInterp
	case errors.Is(err, catalog.ErrVersionGone):
		// 410, not 404: the resource class still exists, but the pinned
		// seq is not one this catalog can answer — retention pruned the
		// history below it, or it is past the head. Clients drop the pin
		// and re-read from the head.
		return http.StatusGone, CodeVersionGone
	case errors.Is(err, catalog.ErrInvalid):
		return http.StatusBadRequest, CodeBadRequest
	case errors.Is(err, catalog.ErrDupName):
		return http.StatusConflict, CodeDupName
	case errors.Is(err, catalog.ErrJournal):
		return http.StatusInternalServerError, CodeJournal
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// httpError writes err as an error envelope with its mapped status.
func httpError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	WriteError(w, status, code, err.Error())
}

// badRequest writes a 400 envelope with a literal message.
func badRequest(w http.ResponseWriter, msg string) {
	WriteError(w, http.StatusBadRequest, CodeBadRequest, msg)
}

// WriteError writes the error envelope, for the built-in routes and
// those mounted with WithRoute alike. It must not be used after the
// body has started (streams set a trailer instead).
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	writeJSONStatus(w, status, errorEnvelope{Error: errorBody{Code: code, Message: msg}})
}
