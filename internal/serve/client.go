package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// RetryPolicy configures the client's capped-exponential-backoff retry
// loop.  Retries apply ONLY to idempotent operations: reads (listings,
// /count, /countBatch — pure queries), the health and stats endpoints,
// and appends that carry a client-supplied idempotency batch id (the
// server dedups replays, so a retried batch cannot double-apply).
// Creates, subscribes, unsubscribes, and appends without a batch id
// never retry — a lost response would make a replay non-idempotent.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (≤ 1 disables retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it, capped at MaxDelay, with ±50% jitter.  A 503's
	// Retry-After header overrides the computed delay when larger.
	BaseDelay time.Duration
	// MaxDelay caps the per-retry backoff.
	MaxDelay time.Duration
}

// SharedTransport returns an http.Client over one pooled transport
// tuned for fan-out against a fixed set of epserved hosts: up to
// maxIdlePerHost warm keep-alive connections are retained per host
// (≤ 0 selects 32), so a scatter-gather burst reuses TCP connections
// instead of paying a cold dial per request.  Hand the same client to
// every NewClient aimed at the fleet so all of them share the pool.
func SharedTransport(maxIdlePerHost int) *http.Client {
	if maxIdlePerHost <= 0 {
		maxIdlePerHost = 32
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = maxIdlePerHost
	if tr.MaxIdleConns < 4*maxIdlePerHost {
		tr.MaxIdleConns = 4 * maxIdlePerHost
	}
	return &http.Client{Transport: tr}
}

// Client is a typed HTTP client for an epserved server.  The zero
// value is not usable; call NewClient.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
	// sleep pauses between retries (swapped out by tests).
	sleep func(ctx context.Context, d time.Duration) error
}

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080").  hc may be nil for http.DefaultClient.
// The client does not retry; see WithRetry.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc, sleep: sleepCtx}
}

// WithRetry returns a copy of the client that retries idempotent
// operations per the policy (see RetryPolicy for what qualifies):
// transient transport errors and 503 responses back off exponentially
// with jitter, honoring Retry-After.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	cc := *c
	cc.retry = p
	return &cc
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do sends a JSON request and decodes the JSON response into out,
// mapping non-2xx responses to errors carrying the server's message.
// Idempotent requests retry per the client's policy; the request body
// is re-marshalled bytes, safe to replay.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var payload []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		payload = data
	}
	attempts := 1
	if idempotent && c.retry.MaxAttempts > 1 {
		attempts = c.retry.MaxAttempts
	}
	var lastErr error
	var hint time.Duration // server's Retry-After, if any
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, c.backoff(attempt, hint)); err != nil {
				return lastErr
			}
		}
		retryable, retryAfter, err := c.doOnce(ctx, method, path, payload, in != nil, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || ctx.Err() != nil {
			return err
		}
		hint = retryAfter
	}
	return lastErr
}

// backoff computes the delay before retry #attempt: exponential from
// BaseDelay, capped at MaxDelay, ±50% jitter, floored at the server's
// Retry-After hint.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	base := c.retry.BaseDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := c.retry.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	d := base << uint(attempt-1)
	if d > maxd || d <= 0 {
		d = maxd
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if hint > d {
		d = hint
	}
	if d > maxd {
		d = maxd
	}
	return d
}

// doOnce performs one HTTP round trip.  retryable reports whether the
// failure is transient: a transport error (connection refused/reset,
// dropped mid-flight) or a 503 — the admission controller and the
// shutdown path both use 503 + Retry-After for "try again shortly".
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, hasBody bool, out any) (retryable bool, retryAfter time.Duration, err error) {
	var body io.Reader
	if hasBody {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return false, 0, err
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return true, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		if resp.StatusCode == http.StatusServiceUnavailable {
			if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			}
			retryable = true
		}
		var er ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&er)
		return retryable, retryAfter, &APIError{Status: resp.StatusCode, Method: method, Path: path, Msg: er.Error, Case: er.Case}
	}
	if out == nil {
		// Drain so the keep-alive connection returns to the pool.
		_, _ = io.Copy(io.Discard, resp.Body)
		return false, 0, nil
	}
	return false, 0, json.NewDecoder(resp.Body).Decode(out)
}

// CreateStructure ingests a named structure from fact syntax.
func (c *Client) CreateStructure(ctx context.Context, name, facts string, sig []RelSpec) (StructureInfo, error) {
	return c.CreateStructureWith(ctx, CreateStructureRequest{Name: name, Facts: facts, Signature: sig})
}

// CreateStructureWith is CreateStructure taking the whole request (the
// Backend method).
func (c *Client) CreateStructureWith(ctx context.Context, req CreateStructureRequest) (StructureInfo, error) {
	var info StructureInfo
	err := c.do(ctx, http.MethodPost, "/structures", req, &info, false)
	return info, err
}

// AppendFacts appends facts to a registered structure (atomic with
// respect to concurrent counts) and returns its new metadata.  Without
// a batch id the call is NOT retried on transient failure — a lost
// response leaves the outcome unknown; use AppendFactsBatch for
// retry-safe appends.
func (c *Client) AppendFacts(ctx context.Context, name, facts string) (StructureInfo, error) {
	return c.AppendFactsBatch(ctx, name, facts, "")
}

// AppendFactsBatch appends facts under a client-chosen idempotency
// batch id.  With a non-empty id the request is safely retryable (and
// the retry policy applies): the server dedups recently seen ids —
// including across crash recovery — and echoes the id in the response.
func (c *Client) AppendFactsBatch(ctx context.Context, name, facts, batchID string) (StructureInfo, error) {
	var info StructureInfo
	err := c.do(ctx, http.MethodPost, "/structures/"+name+"/facts",
		AppendFactsRequest{Facts: facts, BatchID: batchID}, &info, batchID != "")
	return info, err
}

// Structures lists the registered structures.
func (c *Client) Structures(ctx context.Context) ([]StructureInfo, error) {
	var resp StructuresResponse
	err := c.do(ctx, http.MethodGet, "/structures", nil, &resp, true)
	return resp.Structures, err
}

// Structure fetches one structure's metadata.
func (c *Client) Structure(ctx context.Context, name string) (StructureInfo, error) {
	var info StructureInfo
	err := c.do(ctx, http.MethodGet, "/structures/"+name, nil, &info, true)
	return info, err
}

// Count counts the query's answers on one registered structure.  The
// returned big.Int is parsed from the server's decimal string.
func (c *Client) Count(ctx context.Context, query, structureName string) (*big.Int, CountResponse, error) {
	return c.CountWith(ctx, CountRequest{Query: query, Structure: structureName})
}

// CountWith is Count with full request control (timeout, mode).
func (c *Client) CountWith(ctx context.Context, req CountRequest) (*big.Int, CountResponse, error) {
	var resp CountResponse
	if err := c.do(ctx, http.MethodPost, "/count", req, &resp, true); err != nil {
		return nil, resp, err
	}
	v, ok := new(big.Int).SetString(resp.Count, 10)
	if !ok {
		return nil, resp, fmt.Errorf("epserved: malformed count %q", resp.Count)
	}
	return v, resp, nil
}

// CountApprox counts the query on one registered structure in approx
// mode with the given (ε, δ) target (0, 0 selects the server defaults
// 0.1, 0.05): hard-classified terms run the sampling estimator, FPT
// terms the exact executor.  The returned big.Int is the point
// estimate; the CountResponse carries rel_error, confidence, case,
// samples, and converged.  Use CountWith for the remaining approx knobs
// (seed, max_samples).
func (c *Client) CountApprox(ctx context.Context, query, structureName string, eps, delta float64) (*big.Int, CountResponse, error) {
	return c.CountWith(ctx, CountRequest{
		Query: query, Structure: structureName,
		Mode: "approx", Epsilon: eps, Delta: delta,
	})
}

// CountBatch counts the query on several registered structures in one
// request; result i corresponds to structures[i].
func (c *Client) CountBatch(ctx context.Context, query string, structures []string) ([]*big.Int, CountBatchResponse, error) {
	return c.CountBatchWith(ctx, CountBatchRequest{Query: query, Structures: structures})
}

// CountBatchWith is CountBatch with full request control.
func (c *Client) CountBatchWith(ctx context.Context, req CountBatchRequest) ([]*big.Int, CountBatchResponse, error) {
	var resp CountBatchResponse
	if err := c.do(ctx, http.MethodPost, "/countBatch", req, &resp, true); err != nil {
		return nil, resp, err
	}
	out := make([]*big.Int, len(resp.Counts))
	for i, s := range resp.Counts {
		v, ok := new(big.Int).SetString(s, 10)
		if !ok {
			return nil, resp, fmt.Errorf("epserved: malformed count %q", s)
		}
		out[i] = v
	}
	return out, resp, nil
}

// Subscribe registers a maintained count for (query, structure) and
// returns its metadata.  The count materializes on the first
// SubscriptionCount read and is maintained incrementally afterwards.
func (c *Client) Subscribe(ctx context.Context, query, structureName string) (SubscriptionInfo, error) {
	return c.SubscribeWith(ctx, SubscribeRequest{Query: query, Structure: structureName})
}

// SubscribeWith is Subscribe from a full request.
func (c *Client) SubscribeWith(ctx context.Context, req SubscribeRequest) (SubscriptionInfo, error) {
	var info SubscriptionInfo
	err := c.do(ctx, http.MethodPost, "/subscriptions", req, &info, false)
	return info, err
}

// SubscriptionCount reads a subscription's maintained count at the
// structure's current version (updating it first if the structure moved
// since the last read).  The big.Int is parsed from the decimal wire
// string.
func (c *Client) SubscriptionCount(ctx context.Context, id string) (*big.Int, SubscriptionInfo, error) {
	var info SubscriptionInfo
	if err := c.do(ctx, http.MethodGet, "/subscriptions/"+id, nil, &info, true); err != nil {
		return nil, info, err
	}
	v, ok := new(big.Int).SetString(info.Count, 10)
	if !ok {
		return nil, info, fmt.Errorf("epserved: malformed count %q", info.Count)
	}
	return v, info, nil
}

// Subscriptions lists the registered subscriptions.
func (c *Client) Subscriptions(ctx context.Context) ([]SubscriptionInfo, error) {
	var resp SubscriptionsResponse
	err := c.do(ctx, http.MethodGet, "/subscriptions", nil, &resp, true)
	return resp.Subscriptions, err
}

// Unsubscribe removes a subscription.
func (c *Client) Unsubscribe(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/subscriptions/"+id, nil, nil, false)
}

// Stats fetches the server's telemetry snapshot.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := c.do(ctx, http.MethodGet, "/stats", nil, &resp, true)
	return resp, err
}

// Healthz reports whether the server answers its health check.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, true)
}
