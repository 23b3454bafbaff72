package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"heisendump"
	"heisendump/internal/telemetry"
)

// Error codes of the typed JSON error payloads every non-2xx response
// (and every failed job's terminal status) carries. Clients branch on
// Code, never on message text.
const (
	// CodeBadRequest: the request itself is malformed (bad JSON, bad
	// query parameter, missing source). HTTP 400.
	CodeBadRequest = "bad_request"
	// CodeBadProgram: the subject program was rejected by the
	// language's parser or static checker (a typed
	// *heisendump.SourceError). The client's program is at fault, not
	// the service. HTTP 400.
	CodeBadProgram = "bad_program"
	// CodeBadInput: the seeded input disagrees with the program's
	// declarations (a typed *heisendump.InputError). HTTP 400.
	CodeBadInput = "bad_input"
	// CodeNotFound: no such job (never existed, or TTL-evicted from
	// the results store). HTTP 404.
	CodeNotFound = "not_found"
	// CodeQueueFull: per-tenant admission control shed the job instead
	// of queueing without bound. HTTP 429 with a Retry-After header.
	CodeQueueFull = "queue_full"
	// CodeDeadlineExceeded: the job's deadline expired — while queued
	// (admission control refused to start it) or mid-run (the Session
	// was cancelled at one-trial granularity; the terminal status
	// carries the deterministic partial report). HTTP 504.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeTooLarge: the request body exceeds the endpoint's size limit,
	// which Limit carries in bytes. HTTP 413.
	CodeTooLarge = "too_large"
	// CodeShuttingDown: the server is draining and accepts no new
	// jobs. HTTP 503.
	CodeShuttingDown = "shutting_down"
	// CodeInternal: an unexpected pipeline or server failure — the
	// only code that is the service's fault. HTTP 500.
	CodeInternal = "internal"
)

// ErrorPayload is the JSON error envelope. Code is always set;
// the detail fields are populated per code (Phase/Line for
// bad_program, Name/Got/Want for bad_input, Tenant/Depth/Limit for
// queue_full, Limit for too_large).
type ErrorPayload struct {
	Code    string `json:"code"`
	Message string `json:"message"`

	// bad_program detail (from *heisendump.SourceError).
	Phase string `json:"phase,omitempty"`
	Line  int    `json:"line,omitempty"`

	// bad_input detail (from *heisendump.InputError).
	Name string `json:"name,omitempty"`
	Got  int    `json:"got,omitempty"`
	Want int    `json:"want,omitempty"`

	// queue_full detail (Limit also carries too_large's byte limit).
	Tenant       string `json:"tenant,omitempty"`
	Depth        int    `json:"depth,omitempty"`
	Limit        int    `json:"limit,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`

	// Flight is the job's flight-recorder snapshot — the last ranks
	// the search committed and its fold decisions before the run
	// stopped.
	// Attached to deadline_exceeded and shutting_down terminal job
	// statuses (when the job ran at all) so a 504 comes with evidence
	// of what the search was doing; nil on admission-time refusals.
	Flight *telemetry.FlightLog `json:"flight,omitempty"`
}

// Error implements error so payloads can travel through error returns
// inside the server.
func (e *ErrorPayload) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// HTTPStatus maps the payload's code to its transport status.
func (e *ErrorPayload) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest, CodeBadProgram, CodeBadInput:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case CodeShuttingDown:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// bodyError types a failure reading a request body: a body past its
// http.MaxBytesReader limit is too_large, anything else a bad_request
// whose message starts with what.
func bodyError(err error, what string) *ErrorPayload {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &ErrorPayload{Code: CodeTooLarge, Limit: int(tooLarge.Limit),
			Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
	}
	return &ErrorPayload{Code: CodeBadRequest, Message: what + err.Error()}
}

// classifySubmitError types a compile/validate failure at admission:
// parser and checker rejections and input/declaration mismatches are
// the client's fault (400-class codes, with their typed detail
// preserved); anything else is internal.
func classifySubmitError(err error) *ErrorPayload {
	var srcErr *heisendump.SourceError
	if errors.As(err, &srcErr) {
		return &ErrorPayload{
			Code:    CodeBadProgram,
			Message: srcErr.Msg,
			Phase:   srcErr.Phase,
			Line:    srcErr.Line,
		}
	}
	var inErr *heisendump.InputError
	if errors.As(err, &inErr) {
		return &ErrorPayload{
			Code:    CodeBadInput,
			Message: inErr.Error(),
			Name:    inErr.Name,
			Got:     inErr.Got,
			Want:    inErr.Want,
		}
	}
	return &ErrorPayload{Code: CodeInternal, Message: err.Error()}
}

// classifyRunError types a terminal Session error. ErrNoFailure and
// ErrScheduleNotFound are NOT errors here — they are legitimate
// outcomes the report carries — so callers only pass errors that
// remain after filtering those.
func classifyRunError(err error, hadDeadline bool) *ErrorPayload {
	switch {
	case errors.Is(err, heisendump.ErrCancelled):
		if hadDeadline && errors.Is(err, context.DeadlineExceeded) {
			return &ErrorPayload{Code: CodeDeadlineExceeded, Message: "job deadline exceeded mid-run; the partial report is the deterministic committed prefix"}
		}
		return &ErrorPayload{Code: CodeShuttingDown, Message: "job cancelled by server shutdown"}
	default:
		return classifySubmitError(err)
	}
}
