package fabric

import (
	"context"
	"fmt"
)

// ClientConfig configures a Globus-Compute-SDK-style client.
type ClientConfig struct {
	Credentials Credentials
}

// Client is what the Inference Gateway holds: it forwards each request to
// the hub with the shared confidential client and waits on the returned
// future (§3.2.1).
type Client struct {
	hub *Hub
	cfg ClientConfig
}

// NewClient returns a client bound to a hub.
func NewClient(hub *Hub, cfg ClientConfig) *Client {
	return &Client{hub: hub, cfg: cfg}
}

// Submit sends a function invocation and returns a future. The future is
// the caller's for good: its record never goes back to the free list.
func (c *Client) Submit(endpointID, function string, payload any) (*Future, error) {
	rec, err := c.hub.submit(c.cfg.Credentials, endpointID, function, payload, nil)
	if err != nil {
		return nil, err
	}
	return &rec.fut, nil
}

// Run submits and waits (the gateway's per-request path). The payload reaches
// the function's handler unchanged, and its result comes back unchanged. The
// task is a record from the hub's free list, given back once its outcome is
// in hand; a Run whose ctx ends first leaves the record to the collector,
// since the task may still be running.
//
//first:hotpath pinned by TestClientRunZeroAlloc (fabric_test.go)
func (c *Client) Run(ctx context.Context, endpointID, function string, payload any) (any, error) {
	rec, err := c.hub.submit(c.cfg.Credentials, endpointID, function, payload, nil)
	if err != nil {
		return nil, err
	}
	res, in, err := wait(ctx, rec)
	if in {
		c.hub.recycle(rec)
	}
	return res, err
}

// Infer runs FnInfer with req carried in the task's record, so neither it
// nor the answer is boxed: the handler is given a pointer to the record's
// copy of req, and the built-in handler answers with a pointer to the
// record's InferResult, which Infer copies out before the record goes back.
// A handler may also answer with an InferResult value; any other answer
// fails with ErrPayloadType.
//
//first:hotpath pinned by TestClientInferZeroAlloc (fabric_test.go)
func (c *Client) Infer(ctx context.Context, endpointID string, req InferRequest) (InferResult, error) {
	rec, err := c.hub.submit(c.cfg.Credentials, endpointID, FnInfer, nil, &req)
	if err != nil {
		return InferResult{}, err
	}
	out, in, err := wait(ctx, rec)
	var res InferResult
	if err == nil {
		res, err = inferResult(out)
	}
	if in {
		c.hub.recycle(rec)
	}
	return res, err
}

// inferResult copies out an FnInfer answer, given by pointer or by value.
//
//first:hotpath reached through the Infer pin
func inferResult(out any) (InferResult, error) {
	switch r := out.(type) {
	case *InferResult:
		if r != nil {
			return *r, nil
		}
	case InferResult:
		return r, nil
	}
	return InferResult{}, fmt.Errorf("%w: %s answered %T, not %T", ErrPayloadType, FnInfer, out, InferResult{}) //firstlint:allow hotpath a foreign answer is an error path
}

// wait takes rec's outcome once its token is in; in is false when ctx ended
// first, and the record is then not the waiter's to give back.
//
//first:hotpath reached through the Run and Infer pins
func wait(ctx context.Context, rec *record) (res any, in bool, err error) {
	select {
	case <-rec.fut.wake: // the token stays taken: the record goes back empty
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	return rec.fut.outcome(ctx)
}

// Embed is a typed convenience around FnEmbed.
func (c *Client) Embed(ctx context.Context, endpointID string, req EmbedRequest) (EmbedResult, error) {
	var res EmbedResult
	out, err := c.Run(ctx, endpointID, FnEmbed, req)
	if err != nil {
		return res, err
	}
	res, ok := out.(EmbedResult)
	if !ok {
		return res, fmt.Errorf("%w: %s answered %T, not %T", ErrPayloadType, FnEmbed, out, res)
	}
	return res, nil
}

// QueuedTasks reports the hub's backlog (the Artillery test's observable).
func (c *Client) QueuedTasks() int { return c.hub.QueuedTasks() }
