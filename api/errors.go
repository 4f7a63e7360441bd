package api

import (
	"fmt"
	"net/http"
	"time"
)

// ErrorCode is a machine-readable failure class. Clients branch on codes;
// messages are human diagnostics and carry no stability guarantee.
type ErrorCode string

const (
	// ErrBadRequest: the request body or parameters could not be parsed
	// (malformed JSON, unknown fields, non-numeric parameters).
	ErrBadRequest ErrorCode = "bad_request"
	// ErrNotFound: the addressed dataset, session, or node does not exist
	// (expired, evicted, collapsed away, or never created).
	ErrNotFound ErrorCode = "not_found"
	// ErrBadRule: the request addressed the tree inconsistently — a
	// malformed node ID, an unknown column, or a star drill on an
	// already-instantiated column.
	ErrBadRule ErrorCode = "bad_rule"
	// ErrBudget: a budget or limit parameter is out of range (negative
	// budget_ms, oversized k, negative max_rules).
	ErrBudget ErrorCode = "budget"
	// ErrCanceled: the request's context was canceled while the search
	// ran — the client went away or the server is shutting down. The BRS
	// search stops at the next counting-pass boundary; the session stays
	// valid.
	ErrCanceled ErrorCode = "canceled"
	// ErrOverloaded: the server's admission controller shed the request
	// before any work ran — every concurrency slot stayed busy for the
	// whole admission wait. The response carries a Retry-After header
	// (seconds); the request is always safe to retry, including
	// non-idempotent methods, precisely because it never executed.
	ErrOverloaded ErrorCode = "overloaded"
	// ErrInternal: a server-side failure (handler panic).
	ErrInternal ErrorCode = "internal"
)

// StatusCanceled is the HTTP status reported for ErrCanceled — 499
// "client closed request" (the de-facto nginx convention; no standard
// status fits a client that is no longer listening).
const StatusCanceled = 499

// HTTPStatus maps an error code to its HTTP status. Every ErrorCode has
// an explicit case (enforced by sdlint's apicodes check); the default arm
// only catches codes minted by a newer server than this mapping.
func HTTPStatus(code ErrorCode) int {
	switch code {
	case ErrBadRequest, ErrBadRule, ErrBudget:
		return http.StatusBadRequest
	case ErrNotFound:
		return http.StatusNotFound
	case ErrCanceled:
		return StatusCanceled
	case ErrOverloaded:
		return http.StatusTooManyRequests
	case ErrInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// Error is the uniform failure body. It implements the error interface so
// SDKs can return it directly; errors.As(err, *&api.Error{}) recovers the
// code from any wrapped chain.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
	// HTTPStatus is the transport status the error traveled with. It is
	// not part of the JSON body (the status line already carries it);
	// clients populate it when decoding.
	HTTPStatus int `json:"-"`
	// RetryAfter is the response's Retry-After hint, when the server sent
	// one (overloaded responses always do). Like HTTPStatus it travels as
	// a header, not in the JSON body; clients populate it when decoding.
	// Zero means no hint.
	RetryAfter time.Duration `json:"-"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// ErrorEnvelope is the JSON shape of every non-2xx response:
// {"error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	Error *Error `json:"error"`
}
