package openaiapi

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// FuzzParseRequest drives every request parser the gateway's handlers run on
// untrusted bodies — chat, completion, embedding (with its custom
// string-or-list UnmarshalJSON), and batch lines — through one input. The
// property is the handler contract: malformed bodies must come back as
// errors, never as panics, and whatever parses must survive Validate and a
// re-marshal. Seed corpus lives under testdata/fuzz/FuzzParseRequest (run in
// plain `go test` too); `make check` fuzzes briefly on top.
func FuzzParseRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{broken`,
		`null`,
		`[]`,
		`"just a string"`,
		`{"model":"m","messages":[{"role":"user","content":"hi"}],"max_tokens":8}`,
		`{"model":"m","messages":[{"role":"alien","content":"x"}]}`,
		`{"model":"m","messages":[],"stream":true}`,
		`{"model":"m","prompt":"complete me","max_tokens":-3}`,
		`{"model":"m","input":"single string"}`,
		`{"model":"m","input":["a","b","c"]}`,
		`{"model":"m","input":{"not":"a list"}}`,
		`{"model":"m","input":12345}`,
		`{"custom_id":"1","method":"POST","url":"/v1/chat/completions","body":{"model":"m","messages":[{"role":"user","content":"x"}]}}`,
		"{\"model\":\"\x00\ufffd\",\"messages\":[{\"role\":\"user\",\"content\":\"\\ud800\"}]}",
		`{"model":"m","messages":[{"role":"user","content":"` + string(make([]byte, 64)) + `"}]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var chat ChatCompletionRequest
		if err := json.Unmarshal(data, &chat); err == nil {
			if chat.Validate() == nil {
				if _, err := json.Marshal(chat); err != nil {
					t.Errorf("valid chat request does not re-marshal: %v", err)
				}
			}
		}
		var comp CompletionRequest
		if err := json.Unmarshal(data, &comp); err == nil {
			_ = comp.Validate()
		}
		var emb EmbeddingRequest
		if err := json.Unmarshal(data, &emb); err == nil {
			_ = emb.Validate()
		}
		var line BatchRequestLine
		if err := json.Unmarshal(data, &line); err == nil {
			_ = line.Body.Validate()
		}
		var batch CreateBatchRequest
		if err := json.Unmarshal(data, &batch); err == nil {
			for _, l := range batch.InputLines {
				_ = l.Body.Validate()
			}
		}
	})
}

// FuzzReadSSE hardens the stream reader against arbitrary wire bytes — in
// particular streams cut mid-event, which chaos testing produces on purpose.
// Properties: never panic; a stream containing a [DONE] sentinel before the
// cut returns nil; any clean EOF without [DONE] returns ErrStreamTruncated
// (never silent success); delivered payloads are never empty.
func FuzzReadSSE(f *testing.F) {
	seeds := []string{
		"",
		"data: {\"x\":1}\n\ndata: [DONE]\n\n",
		"data: {\"x\":1}\n\n",                   // complete event, missing [DONE]
		"data: {\"choices\":[{\"delta\":{\"con", // cut mid-JSON, no trailing newline
		"data: {\"x\":1}\n\ndata: {\"y\":",      // second event cut mid-payload
		"data:",                                 // bare field name at EOF
		"data: [DON",                            // sentinel itself cut
		"data:[DONE]",                           // no-space sentinel, no trailing blank line
		": comment only\n\n",                    // heartbeat-only stream, then cut
		"event: ping\ndata: {}",                 // wrong event framing, cut before blank line
		"data: [DONE]\n\ndata: ",                // trailing garbage after sentinel
		"data:[DONE]\r",                         // CRLF-framed sentinel, cut after the CR
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sawDone bool
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSuffix(line, "\r") // CRLF framing: the scanner drops one, as SSE allows
			if !strings.HasPrefix(line, "data:") {
				continue
			}
			p := strings.TrimPrefix(line, "data:")
			if strings.HasPrefix(p, " ") {
				p = p[1:] // ReadSSE strips at most one optional space
			}
			if p == StreamDone {
				sawDone = true
				break
			}
		}
		err := ReadSSE(strings.NewReader(string(data)), func(payload []byte) error {
			if len(payload) == 0 {
				t.Error("empty payload delivered")
			}
			return nil
		})
		if sawDone && err != nil {
			t.Errorf("stream with [DONE] returned %v", err)
		}
		if !sawDone && err == nil {
			t.Error("cut stream returned nil, want ErrStreamTruncated")
		}
		if !sawDone && err != nil && !errors.Is(err, ErrStreamTruncated) {
			// Scanner-level errors (oversized tokens) are legitimate too, but
			// only for genuinely oversized input.
			if len(data) <= 64*1024 {
				t.Errorf("cut stream returned untyped error %v", err)
			}
		}
	})
}
