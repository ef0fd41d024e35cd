package fabric

import (
	"encoding/json"
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

// InferRequest is the payload of an FnInfer task.
type InferRequest struct {
	Model     string `json:"model"`
	PromptTok int    `json:"prompt_tokens"`
	OutputTok int    `json:"max_tokens"`
	Prompt    string `json:"prompt,omitempty"`
	// WantText asks the serving side to synthesize response text; perf
	// harnesses leave it false and work with token counts only.
	WantText bool `json:"want_text,omitempty"`
}

// InferResult is the payload of an FnInfer result.
type InferResult struct {
	Model      string        `json:"model"`
	Text       string        `json:"text,omitempty"`
	PromptTok  int           `json:"prompt_tokens"`
	OutputTok  int           `json:"completion_tokens"`
	QueueWait  time.Duration `json:"queue_wait_ns"`
	ServeTime  time.Duration `json:"serve_time_ns"`
	InstanceID int           `json:"instance_id"`
}

// EmbedRequest is the payload of an FnEmbed task.
type EmbedRequest struct {
	Model  string   `json:"model"`
	Inputs []string `json:"inputs"`
}

// EmbedResult is the payload of an FnEmbed result.
type EmbedResult struct {
	Model   string      `json:"model"`
	Dim     int         `json:"dim"`
	Vectors [][]float32 `json:"vectors"`
}

// MarshalPayload encodes any payload type for the fabric.
func MarshalPayload(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("fabric: payload marshal: %v", err)) // payload types are all marshalable
	}
	return b
}

// UnmarshalPayload decodes a payload into v.
func UnmarshalPayload(data []byte, v interface{}) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("fabric: payload unmarshal: %w", err)
	}
	return nil
}
