package fabric

import (
	"fmt"
	"time"
)

// Well-known function names pre-registered on endpoints. Only these can be
// invoked (§3.2.2 Security: "Only functions that are pre-registered by the
// administrators are permitted to be executed").
const (
	FnInfer = "first.infer"
	FnEmbed = "first.embed"
)

// InferRequest is the payload of an FnInfer task. Payloads cross the hub as
// Go values (see the package comment), so these types carry no wire tags.
type InferRequest struct {
	Model     string
	PromptTok int
	// OutputTok is the output length; 0 or less asks for
	// DefaultOutputTokens (a request that omits max_tokens).
	OutputTok int
	Prompt    string
	// WantText asks the serving side to synthesize response text; perf
	// harnesses leave it false and work with token counts only.
	WantText bool
}

// InferPayload reads an FnInfer task's payload: the InferRequest a Run or a
// Submit was given, or the pointer Client.Infer passes, which points into
// the task's record and is the handler's to read only until it returns.
// Any other payload fails with ErrPayloadType.
func InferPayload(payload any) (InferRequest, error) {
	switch p := payload.(type) {
	case *InferRequest:
		if p != nil {
			return *p, nil
		}
	case InferRequest:
		return p, nil
	}
	return InferRequest{}, fmt.Errorf("%w: %s takes an InferRequest, not %T", ErrPayloadType, FnInfer, payload)
}

// InferResult is the payload of an FnInfer result.
type InferResult struct {
	Model      string
	Text       string
	PromptTok  int
	OutputTok  int
	QueueWait  time.Duration
	ServeTime  time.Duration
	InstanceID int
}

// EmbedRequest is the payload of an FnEmbed task.
type EmbedRequest struct {
	Model  string
	Inputs []string
}

// EmbedResult is the payload of an FnEmbed result.
type EmbedResult struct {
	Model   string
	Dim     int
	Vectors [][]float32
}
