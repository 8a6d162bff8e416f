package engine

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"github.com/calcm/heterosim/internal/par"
)

// Error is an error with an HTTP status. Operations return it from
// validation and evaluation so the transport layer can map model errors
// to 4xx instead of a blanket 500. It marshals as the serving API's
// error body, {"error": message}.
type Error struct {
	Status  int    `json:"-"`
	Message string `json:"error"`
}

func (e *Error) Error() string { return e.Message }

// BadRequest builds a 400 Error: the request is malformed.
func BadRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Message: fmt.Sprintf(format, args...)}
}

// Unprocessable builds a 422 Error: the request is well-formed but the
// model cannot produce a feasible answer for it.
func Unprocessable(format string, args ...any) *Error {
	return &Error{Status: http.StatusUnprocessableEntity, Message: fmt.Sprintf(format, args...)}
}

// EvalFailure classifies an evaluation error: context cancellation and
// deadline errors pass through untouched so the transport can map them
// to 503/504, as does a panic recovered by the worker pool (par.ErrPanic),
// which is a server fault (500) and never the request's; anything else
// is wrapped with mk (BadRequest or Unprocessable).
func EvalFailure(err error, mk func(string, ...any) *Error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, par.ErrPanic) {
		return err
	}
	return mk("%v", err)
}
