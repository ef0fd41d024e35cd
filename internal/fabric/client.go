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
	rec, err := c.hub.submit(c.cfg.Credentials, endpointID, function, payload)
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
	rec, err := c.hub.submit(c.cfg.Credentials, endpointID, function, payload)
	if err != nil {
		return nil, err
	}
	select {
	case <-rec.fut.wake: // the token stays taken: the record goes back empty
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	res, in, err := rec.fut.outcome(ctx)
	if in {
		c.hub.recycle(rec)
	}
	return res, err
}

// Infer is a typed convenience around FnInfer.
func (c *Client) Infer(ctx context.Context, endpointID string, req InferRequest) (InferResult, error) {
	return run[InferResult](c, ctx, endpointID, FnInfer, req)
}

// Embed is a typed convenience around FnEmbed.
func (c *Client) Embed(ctx context.Context, endpointID string, req EmbedRequest) (EmbedResult, error) {
	return run[EmbedResult](c, ctx, endpointID, FnEmbed, req)
}

// run is Run with the result asserted to R; a function that answers with
// another type fails with ErrPayloadType.
func run[R any](c *Client, ctx context.Context, endpointID, function string, payload any) (R, error) {
	var res R
	out, err := c.Run(ctx, endpointID, function, payload)
	if err != nil {
		return res, err
	}
	res, ok := out.(R)
	if !ok {
		return res, fmt.Errorf("%w: %s answered %T, not %T", ErrPayloadType, function, out, res)
	}
	return res, nil
}

// QueuedTasks reports the hub's backlog (the Artillery test's observable).
func (c *Client) QueuedTasks() int { return c.hub.QueuedTasks() }
