package fabric

import "context"

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

// Submit sends a function invocation and returns a future.
func (c *Client) Submit(endpointID, function string, payload []byte) (*Future, error) {
	return c.hub.submit(c.cfg.Credentials, endpointID, function, payload)
}

// Run submits and waits (the gateway's per-request path).
func (c *Client) Run(ctx context.Context, endpointID, function string, payload []byte) ([]byte, error) {
	fut, err := c.Submit(endpointID, function, payload)
	if err != nil {
		return nil, err
	}
	return fut.Wait(ctx)
}

// Infer is a typed convenience around FnInfer.
func (c *Client) Infer(ctx context.Context, endpointID string, req InferRequest) (InferResult, error) {
	raw, err := c.Run(ctx, endpointID, FnInfer, MarshalPayload(req))
	if err != nil {
		return InferResult{}, err
	}
	var res InferResult
	if err := UnmarshalPayload(raw, &res); err != nil {
		return InferResult{}, err
	}
	return res, nil
}

// Embed is a typed convenience around FnEmbed.
func (c *Client) Embed(ctx context.Context, endpointID string, req EmbedRequest) (EmbedResult, error) {
	raw, err := c.Run(ctx, endpointID, FnEmbed, MarshalPayload(req))
	if err != nil {
		return EmbedResult{}, err
	}
	var res EmbedResult
	if err := UnmarshalPayload(raw, &res); err != nil {
		return EmbedResult{}, err
	}
	return res, nil
}

// QueuedTasks reports the hub's backlog (the Artillery test's observable).
func (c *Client) QueuedTasks() int { return c.hub.QueuedTasks() }
