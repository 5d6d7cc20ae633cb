package serve

import (
	"context"
	"errors"
	"fmt"
	"math/big"
)

// Backend is the epserved operation set: everything the wire API can
// ask for, over the wire types of api.go.  The HTTP surface (Frontend)
// serves any Backend, and there are three: *Server executes against
// its own registry, *Client forwards to a remote epserved, and
// cluster.Coordinator composes a fleet of Backends into one.  The
// counting methods return the count both parsed and in its wire form,
// so a composing backend sums without re-parsing and the Frontend
// encodes without re-rendering.
//
// A method that fails returns an *APIError when it knows the status the
// failure has on the wire; any other error means the backend could not
// answer at all (a transport failure behind a router).
type Backend interface {
	CreateStructureWith(ctx context.Context, req CreateStructureRequest) (StructureInfo, error)
	Structures(ctx context.Context) ([]StructureInfo, error)
	Structure(ctx context.Context, name string) (StructureInfo, error)
	AppendFactsBatch(ctx context.Context, name, facts, batchID string) (StructureInfo, error)
	CountWith(ctx context.Context, req CountRequest) (*big.Int, CountResponse, error)
	CountBatchWith(ctx context.Context, req CountBatchRequest) ([]*big.Int, CountBatchResponse, error)
	SubscribeWith(ctx context.Context, req SubscribeRequest) (SubscriptionInfo, error)
	Subscriptions(ctx context.Context) ([]SubscriptionInfo, error)
	SubscriptionCount(ctx context.Context, id string) (*big.Int, SubscriptionInfo, error)
	Unsubscribe(ctx context.Context, id string) error
	Stats(ctx context.Context) (StatsResponse, error)
	// Healthz returns nil when the backend is ready to serve; the error's
	// message is the state a not-ready backend reports.
	Healthz(ctx context.Context) error
}

var (
	_ Backend = (*Server)(nil)
	_ Backend = (*Client)(nil)
)

// APIError is the one error that carries a wire status.  A backend
// raises it where the fault is known (the registry's not-found, the
// admission controller's 503, the duplicate-name 409); the Client
// rebuilds it from every non-2xx response, so it crosses a router hop
// unchanged.  Callers that route around failing replicas inspect
// Status via errors.As to separate transient refusals (503, 504) from
// semantic errors (400, 404, 422) that would fail identically
// everywhere.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Method and Path identify the request when the error came back over
	// HTTP; both are empty on an error raised in-process.
	Method, Path string
	// Msg is the error message (empty when a response body carried none).
	Msg string
	// Case is the query's trichotomy case on typed admission rejections
	// of exact-mode hard queries ("clique", "sharp-clique"); empty
	// otherwise.  Clients switch to mode "approx" on seeing it.
	Case string
}

// Errorf builds an in-process APIError.
func Errorf(status int, format string, args ...any) *APIError {
	return &APIError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// WithStatus gives err the status unless it already carries one; a nil
// err stays nil.
func WithStatus(status int, err error) error {
	var ae *APIError
	if err == nil || errors.As(err, &ae) {
		return err
	}
	return &APIError{Status: status, Msg: err.Error()}
}

// Error renders an in-process error as its bare message and a remote
// one in the client's historical format.
func (e *APIError) Error() string {
	switch {
	case e.Method == "":
		return e.Msg
	case e.Msg != "":
		return fmt.Sprintf("epserved: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Msg, e.Status)
	}
	return fmt.Sprintf("epserved: %s %s: HTTP %d", e.Method, e.Path, e.Status)
}
