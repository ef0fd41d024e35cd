package openaiapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestChatRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		req  ChatCompletionRequest
		ok   bool
	}{
		{"valid", ChatCompletionRequest{Model: "m", Messages: []Message{{Role: "user", Content: "hi"}}}, true},
		{"system+user", ChatCompletionRequest{Model: "m", Messages: []Message{{Role: "system", Content: "s"}, {Role: "user", Content: "u"}}}, true},
		{"no model", ChatCompletionRequest{Messages: []Message{{Role: "user", Content: "hi"}}}, false},
		{"no messages", ChatCompletionRequest{Model: "m"}, false},
		{"bad role", ChatCompletionRequest{Model: "m", Messages: []Message{{Role: "robot", Content: "x"}}}, false},
		{"negative max", ChatCompletionRequest{Model: "m", Messages: []Message{{Role: "user", Content: "x"}}, MaxTokens: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.req.Validate()
			if (err == nil) != c.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestCompletionRequestValidation(t *testing.T) {
	if err := (&CompletionRequest{Model: "m", Prompt: "p"}).Validate(); err != nil {
		t.Errorf("valid rejected: %v", err)
	}
	if err := (&CompletionRequest{Prompt: "p"}).Validate(); err == nil {
		t.Error("missing model accepted")
	}
	if err := (&CompletionRequest{Model: "m"}).Validate(); err == nil {
		t.Error("missing prompt accepted")
	}
}

func TestEmbeddingRequestInputForms(t *testing.T) {
	var single EmbeddingRequest
	if err := json.Unmarshal([]byte(`{"model":"e","input":"hello world"}`), &single); err != nil {
		t.Fatal(err)
	}
	if len(single.Input) != 1 || single.Input[0] != "hello world" {
		t.Errorf("single input = %v", single.Input)
	}
	var list EmbeddingRequest
	if err := json.Unmarshal([]byte(`{"model":"e","input":["a","b"]}`), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Input) != 2 {
		t.Errorf("list input = %v", list.Input)
	}
	var empty EmbeddingRequest
	if err := json.Unmarshal([]byte(`{"model":"e"}`), &empty); err != nil {
		t.Fatal(err)
	}
	if err := empty.Validate(); err == nil {
		t.Error("empty input accepted")
	}
	if err := (&EmbeddingRequest{Input: []string{"x"}}).Validate(); err == nil {
		t.Error("missing model accepted")
	}
}

func TestSSERoundtrip(t *testing.T) {
	var buf bytes.Buffer
	chunks := []StreamChunk{
		{ID: "c1", Model: "m", Choices: []Choice{{Delta: &Message{Role: "assistant", Content: "Hello "}}}},
		{ID: "c1", Model: "m", Choices: []Choice{{Delta: &Message{Content: "world"}}}},
	}
	for _, c := range chunks {
		if err := WriteSSE(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteSSEDone(&buf); err != nil {
		t.Fatal(err)
	}
	text, err := CollectStreamText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if text != "Hello world" {
		t.Errorf("collected %q", text)
	}
}

func TestReadSSEStopsAtDone(t *testing.T) {
	raw := "data: {\"x\":1}\n\ndata: [DONE]\n\ndata: {\"x\":2}\n\n"
	var seen int
	err := ReadSSE(strings.NewReader(raw), nil, func(data []byte) error {
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Errorf("events seen = %d, want 1 (stop at DONE)", seen)
	}
}

func TestReadSSEIgnoresNonDataLines(t *testing.T) {
	raw := ": comment\nevent: x\ndata: {\"a\":1}\n\ndata: [DONE]\n\n"
	var seen int
	if err := ReadSSE(strings.NewReader(raw), nil, func([]byte) error { seen++; return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != 1 {
		t.Errorf("seen = %d", seen)
	}
}

// TestReadSSELongLine: a data line longer than bufio's default buffer and
// than the 64 KiB one ReadSSE used to preallocate still reaches the
// consumer whole, and so does a 1 MiB one; a line over the 8 MiB cap fails
// instead of being split.
func TestReadSSELongLine(t *testing.T) {
	for _, n := range []int{64<<10 + 1, 1 << 20} {
		text := strings.Repeat("x", n)
		var raw bytes.Buffer
		WriteSSE(&raw, StreamChunk{Choices: []Choice{{Delta: &Message{Content: text}}}})
		WriteSSEDone(&raw)
		var got []string
		err := ReadSSE(&raw, nil, func(d []byte) error {
			var c StreamChunk
			if err := json.Unmarshal(d, &c); err != nil {
				return err
			}
			got = append(got, c.Choices[0].Delta.Content)
			return nil
		})
		if err != nil || len(got) != 1 || got[0] != text {
			t.Errorf("%d-byte delta: err = %v, %d events", n, err, len(got))
		}
	}
	long := "data: " + strings.Repeat("x", 8<<20) + "\n\n"
	if err := ReadSSE(strings.NewReader(long), nil, func([]byte) error { return nil }); err == nil || errors.Is(err, ErrStreamTruncated) {
		t.Errorf("line over the 8 MiB cap: err = %v, want the scanner's too-long error", err)
	}
}

// TestReadSSETruncated pins the mid-stream disconnect contract: clean EOF
// without the [DONE] sentinel is a typed error, never silent success — a
// cut SSE stream must not be mistaken for a complete answer.
func TestReadSSETruncated(t *testing.T) {
	cases := []string{
		"",
		"data: {\"x\":1}\n\n",
		"data: {\"choices\":[{\"delta\":{\"content\":\"par", // cut mid-JSON
		"data: [DON",
	}
	for _, raw := range cases {
		err := ReadSSE(strings.NewReader(raw), nil, func([]byte) error { return nil })
		if !errors.Is(err, ErrStreamTruncated) {
			t.Errorf("ReadSSE(%q) = %v, want ErrStreamTruncated", raw, err)
		}
	}
	// Deltas before the cut still reach the consumer; the error comes after.
	var got []string
	err := ReadSSE(strings.NewReader("data: {\"a\":1}\n\ndata: {\"b\":2}"), nil, func(d []byte) error {
		got = append(got, string(d))
		return nil
	})
	if !errors.Is(err, ErrStreamTruncated) {
		t.Fatalf("err = %v", err)
	}
	if len(got) != 2 || got[0] != `{"a":1}` || got[1] != `{"b":2}` {
		t.Errorf("payloads before cut = %q", got)
	}
	// CollectStreamText propagates it alongside the partial text.
	text, err := CollectStreamText(strings.NewReader("data: {\"choices\":[{\"delta\":{\"content\":\"half\"}}]}\n\n"))
	if !errors.Is(err, ErrStreamTruncated) {
		t.Fatalf("CollectStreamText err = %v", err)
	}
	if text != "half" {
		t.Errorf("partial text = %q, want \"half\"", text)
	}
}

// TestReadSSENoSpaceAfterColon is the regression test for the spec-form
// fix: the SSE specification allows `data:payload` with no space after the
// colon, and streams from other servers use it. Previously such events were
// silently dropped.
func TestReadSSENoSpaceAfterColon(t *testing.T) {
	raw := "data:{\"a\":1}\n\ndata: {\"b\":2}\n\ndata:[DONE]\n\ndata:{\"c\":3}\n\n"
	var payloads []string
	if err := ReadSSE(strings.NewReader(raw), nil, func(data []byte) error {
		payloads = append(payloads, string(data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 2 || payloads[0] != `{"a":1}` || payloads[1] != `{"b":2}` {
		t.Errorf("payloads = %q, want both colon forms delivered and [DONE] honored", payloads)
	}

	// A full no-space chat stream reassembles like the spaced form.
	noSpace := "data:{\"choices\":[{\"delta\":{\"content\":\"Hi \"}}]}\n\n" +
		"data:{\"choices\":[{\"delta\":{\"content\":\"there\"}}]}\n\n" +
		"data:[DONE]\n\n"
	text, err := CollectStreamText(strings.NewReader(noSpace))
	if err != nil {
		t.Fatal(err)
	}
	if text != "Hi there" {
		t.Errorf("collected %q, want \"Hi there\"", text)
	}
	// Bare `data:` / `data: ` heartbeats are skipped, not delivered: an
	// empty payload would abort JSON consumers mid-stream.
	var events int
	if err := ReadSSE(strings.NewReader("data:\n\ndata: \n\ndata: {\"ok\":1}\n\ndata: [DONE]\n\n"), nil, func(data []byte) error {
		events++
		if len(data) == 0 {
			t.Error("empty payload delivered")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if events != 1 {
		t.Errorf("events = %d, want 1 (heartbeats skipped)", events)
	}
}

func TestErrorEnvelope(t *testing.T) {
	e := NewError("invalid_request_error", "bad input")
	raw, _ := json.Marshal(e)
	var back ErrorResponse
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Error.Type != "invalid_request_error" || back.Error.Message != "bad input" {
		t.Errorf("envelope = %+v", back)
	}
}

func TestBatchLineSerialization(t *testing.T) {
	line := BatchRequestLine{
		CustomID: "r1", Method: "POST", URL: "/v1/chat/completions",
		Body: ChatCompletionRequest{Model: "m", Messages: []Message{{Role: "user", Content: "x"}}, MaxTokens: 5},
	}
	raw, _ := json.Marshal(line)
	var back BatchRequestLine
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.CustomID != "r1" || back.Body.MaxTokens != 5 {
		t.Errorf("roundtrip = %+v", back)
	}
}
