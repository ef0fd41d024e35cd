package openaiapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/argonne-first/first/internal/sim"
	"github.com/argonne-first/first/internal/workload"
)

// unmarshalCases are the bodies where the typed path could part from
// json.Unmarshal; they also seed FuzzUnmarshalMatchesStdlib.
// typed names the chat types whose zero value the body decodes into on the
// typed path (fastdecode.go); every other type falls back.
var unmarshalCases = []struct{ name, body, typed string }{
	{"chat", `{"model":"m1","messages":[{"role":"user","content":"ping"}],"max_tokens":16}`, "request"},
	{"trailing data", `{"model":"m1","messages":[{"role":"user","content":"x"}]} {"model":"m2"}`, ""},
	{"trailing garbage", `{"model":"m1"}x`, ""},
	{"whitespace tail", "{\"model\":\"m1\",\"max_tokens\":3}\n \t\r\n", "request"},
	{"leading whitespace", "\n  {\"model\":\"m1\"}", "request response chunk"},
	{"truncated", `{"model":"m1","messages":[{"role":"user","content":"pi`, ""},
	{"empty", ``, ""},
	{"only whitespace", " \n", ""},
	{"null", `null`, ""},
	{"array", `[{"model":"m1"}]`, ""},
	{"string", `"m1"`, ""},
	{"braces in strings", `{"model":"}{][","messages":[{"role":"user","content":"a\"}\\"}]}`, ""},
	{"mismatched brackets", `{"model":"m1","messages":[}]}`, ""},
	{"syntax error inside", `{"model":"m1","max_tokens":}`, ""},
	{"bad escape", `{"model":"m1\x"}`, ""},
	{"control byte", "{\"model\":\"m\x01\"}", ""},
	{"type error", `{"model":"m1","max_tokens":"many","messages":[{"role":"user","content":"x"}],"n":2}`, ""},
	{"nested type error", `{"model":"m1","messages":[{"role":7,"content":"x"},{"role":"user","content":"y"}]}`, ""},
	{"case-folded keys", `{"MODEL":"m1","Messages":[{"ROLE":"user","Content":"x"}],"Max_Tokens":4}`, ""},
	{"duplicate keys", `{"model":"a","messages":[{"role":"user"},{"role":"x"}],"messages":[{"content":"c"}],"model":"b"}`, ""},
	{"response", `{"id":"chat-1","object":"chat.completion","created":1,"model":"m1","choices":[{"index":0,"message":{"role":"assistant","content":"pong"},"finish_reason":"stop"}],"usage":{"prompt_tokens":1,"completion_tokens":1,"total_tokens":2}}`, "response"},
	{"stream chunk", `{"id":"chat-1","object":"chat.completion.chunk","created":1,"model":"m1","choices":[{"index":0,"delta":{"content":" pong"}}]}`, "response chunk"},
	{"over 64 KiB", `{"model":"m1","messages":[{"role":"user","content":"` + strings.Repeat("x", 70<<10) + `"}]}`, "request"},
	{"request, every field", `{"model":"m1","messages":[{"role":"system","content":"be brief"},{"role":"user","content":"ping"}],"max_tokens":16,"temperature":0.7,"top_p":1e-1,"n":2,"stream":true,"user":"alice"}`, "request"},
	{"request, stream false", "{ \"stream\" : false , \"temperature\":-0 ,\"top_p\":2.5E+3,\"n\":-0}\t", "request"},
	{"response, two choices", `{"id":"cmpl-1","object":"text_completion","created":-5,"model":"m1","choices":[{"index":1,"text":"pong","finish_reason":"length"},{"index":0,"message":{"role":"assistant","content":"π ≈ 3.14"}}],"usage":{"prompt_tokens":0,"completion_tokens":-0,"total_tokens":2147483647}}`, "response"},
	{"chunk, finish", `{"id":"c","object":"chat.completion.chunk","created":1,"model":"m1","choices":[{"index":0,"delta":{},"finish_reason":"stop"}]}`, "response chunk"},
	{"empty arrays", `{"model":"","messages":[]}`, "request"},
	{"empty choices", `{"choices":[],"usage":{}}`, "response"},
	{"empty object", `{}`, "request response chunk"},
	{"escaped string", `{"model":"m1","messages":[{"role":"user","content":"tab\there \u00e9"}]}`, ""},
	{"null fields", `{"model":null,"messages":null,"choices":[{"message":null}]}`, ""},
	{"unknown key", `{"model":"m1","seed":7}`, ""},
	{"nested duplicate", `{"choices":[{"index":0,"delta":{"content":"a","content":"b"}}]}`, ""},
	{"int out of range", `{"model":"m1","max_tokens":9223372036854775808,"created":-9223372036854775809}`, ""},
	{"fraction into int", `{"max_tokens":16.0,"created":1e3}`, ""},
	{"float out of range", `{"temperature":1e400}`, ""},
	{"float near the bound", `{"temperature":0.1e309}`, ""},
	{"float underflow and near max", `{"temperature":1e-400,"top_p":9.99e307}`, "request"},
	{"int64 at its bounds", `{"created":-9223372036854775808,"choices":[{"index":-0}]}`, "response chunk"},
	{"int64 max", `{"created":9223372036854775807}`, "response chunk"},
	{"long float", `{"temperature":0.100000000000000000000000000000000001}`, ""},
	{"invalid UTF-8", "{\"model\":\"m\xff\"}", ""},
	{"leading zero", `{"temperature":01}`, ""},
	{"bare minus", `{"n":-}`, ""},
	{"trailing comma", `{"model":"m1",}`, ""},
	{"cut literal", `{"stream":tru}`, ""},
	{"string for number", `{"created":"1"}`, ""},
	{"escaped quote at 1", `{"model":"m1","messages":[{"role":"user","content":"x\"y"}]}`, ""},
	{"escaped quote at 9", `{"model":"012345678\"z"}`, ""},
	{"escaped quote at 70", `{"model":"m1","messages":[{"role":"user","content":"` + strings.Repeat("x", 70) + `\"y"}]}`, ""},
	{"control byte before eight", "{\"model\":\"ab\x1fcdefghij\"}", ""},
	{"control byte after eight", "{\"model\":\"abcdefghij\x00k\"}", ""},
	{"non-ASCII before the quote", `{"model":"m1","messages":[{"role":"user","content":"naïve café"}]}`, "request"},
	{"cut rune before the quote", "{\"model\":\"caf\xc3\"}", ""},
}

// sameAsStdlib decodes data into a zero T through Unmarshal and through
// json.Unmarshal, calls times in a row, and fails unless every call gives
// json.Unmarshal's value and error, field for field (a syntax or type
// error's Offset included).
func sameAsStdlib[T any](t *testing.T, data []byte, times int) {
	t.Helper()
	for i := 0; i < times; i++ {
		var got, want T
		gotErr, wantErr := Unmarshal(data, &got), json.Unmarshal(data, &want)
		if !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("%T call %d on %.80q: err %q, json.Unmarshal %q", got, i, data, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T call %d on %.80q: value %+v, json.Unmarshal %+v", got, i, data, got, want)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestUnmarshalMatchesStdlib runs every case twice in a row, each into a
// zero value of each wire type the hop decodes. Each chat type takes the
// typed path exactly where the case's typed says.
func TestUnmarshalMatchesStdlib(t *testing.T) {
	for _, c := range unmarshalCases {
		t.Run(c.name, func(t *testing.T) {
			data := []byte(c.body)
			for _, typ := range []struct {
				name string
				v    any
			}{
				{"request", new(ChatCompletionRequest)},
				{"response", new(ChatCompletionResponse)},
				{"chunk", new(StreamChunk)},
			} {
				if got, want := decodeFast(data, typ.v), slices.Contains(strings.Fields(c.typed), typ.name); got != want {
					t.Errorf("typed path taken into a %s: %v, want %v", typ.name, got, want)
				}
			}
			sameAsStdlib[ChatCompletionRequest](t, data, 2)
			sameAsStdlib[ChatCompletionResponse](t, data, 2)
			sameAsStdlib[StreamChunk](t, data, 2)
			sameAsStdlib[ErrorResponse](t, data, 2)
			for _, v := range []any{(*ChatCompletionRequest)(nil), (*ChatCompletionResponse)(nil), (*StreamChunk)(nil)} {
				if got, want := Unmarshal(data, v), json.Unmarshal(data, v); !reflect.DeepEqual(got, want) {
					t.Errorf("into a nil %T: err %q, json.Unmarshal %q", v, errText(got), errText(want))
				}
			}
		})
	}
}

// TestUnmarshalAllocsOnlyValues pins the point of the typed path: a chat
// request body decoded through Unmarshal allocates its values — the model,
// the messages slice, the message's role and content — and nothing of the
// decoder's own. json.Unmarshal measured 11 on the same body (go1.24
// linux/amd64): its decodeState, the scanner's parse stack and the error
// context besides the values.
func TestUnmarshalAllocsOnlyValues(t *testing.T) {
	const values = 4 // "m1", the messages slice, "user" and the content
	body := []byte(`{"model":"m1","messages":[{"role":"user","content":"ping"}],"max_tokens":16}`)
	var req ChatCompletionRequest
	allocs := testing.AllocsPerRun(200, func() {
		req = ChatCompletionRequest{}
		if err := Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > values {
		t.Errorf("Unmarshal of %s = %.1f allocs, want %d (its values)", body, allocs, values)
	}
}

// A chat request decodes on the typed path into the gateway's pooled
// request — no values, a Messages array of cleared elements — and gives
// json.Unmarshal's value into the same target, whether the array has room
// or not. One stale element where the body's messages go sends the body to
// json.Unmarshal's path, which keeps the field the body omits.
func TestUnmarshalIntoPooledRequest(t *testing.T) {
	for _, c := range []struct {
		name  string
		body  string
		stale bool // the target's first element keeps a role
		typed bool
	}{
		{"room", `{"model":"m1","messages":[{"role":"user","content":"a"},{"content":"b"}]}`, false, true},
		{"no room", `{"model":"m1","messages":[{"role":"user","content":"a"},{"role":"user","content":"b"},{"content":"c"}]}`, false, true},
		{"empty", `{"model":"m1","messages":[]}`, false, true},
		{"absent", `{"model":"m1"}`, false, true},
		{"stale element", `{"model":"m1","messages":[{"content":"a"}]}`, true, false},
		{"stale element past the body", `{"model":"m1","messages":[]}`, true, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			pooled := func() *ChatCompletionRequest {
				msgs := make([]Message, 2)
				if c.stale {
					msgs[0].Role = "system"
				}
				return &ChatCompletionRequest{Messages: msgs[:0]}
			}
			got, want := pooled(), pooled()
			probe := pooled()
			if typed := decodeFast([]byte(c.body), probe); typed != c.typed {
				t.Errorf("typed path taken: %v, want %v", typed, c.typed)
			}
			gotErr, wantErr := Unmarshal([]byte(c.body), got), json.Unmarshal([]byte(c.body), want)
			if !reflect.DeepEqual(gotErr, wantErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("Unmarshal = %+v, %v; json.Unmarshal = %+v, %v", got, gotErr, want, wantErr)
			}
		})
	}
}

// The live stack's chat bodies never leave the typed paths, written or
// read: the SDK's request (one message, a prompt of topic words, streaming
// or not), the gateway's response (what answerChat builds) and its stream
// chunks (WriteSSE, read back through ReadSSE), on prompts of every length
// the benchmark draws.
func TestLiveChatBodiesTakeTypedPath(t *testing.T) {
	var fc fallbackCounter
	bodies := 0
	rng := sim.NewRNG(7)
	for i := 1; i <= 40; i++ {
		prompt := fmt.Sprintf("bench c%d q%07d %s", i%2, i, workload.SyntheticPrompt(rng, 6+rng.Intn(24)))
		model := "meta-llama/Meta-Llama-3.1-8B-Instruct"
		enc, typed := appendFast(nil, &ChatCompletionRequest{
			Model: model, Messages: []Message{{Role: "user", Content: prompt}}, MaxTokens: 16, Stream: i%5 == 0,
		})
		if !typed {
			t.Fatalf("the request for %q left the typed writer", prompt)
		}
		var req ChatCompletionRequest
		bodies++
		if err := fc.unmarshal(enc, &req); err != nil {
			t.Fatal(err)
		}

		msg := Message{Role: "assistant", Content: prompt}
		resp := ChatCompletionResponse{
			ID: fmt.Sprintf("chatcmpl-%08d", i), Object: "chat.completion", Created: 1_760_000_000 + int64(i), Model: model,
			Choices: []Choice{{Index: 0, Message: &msg, FinishReason: "stop"}},
			Usage:   Usage{PromptTokens: 20, CompletionTokens: 16, TotalTokens: 36},
		}
		out, typed := appendFast(nil, &resp)
		if !typed {
			t.Fatalf("the response to %q left the typed writer", prompt)
		}
		var got ChatCompletionResponse
		bodies++
		if err := fc.unmarshal(out, &got); err != nil {
			t.Fatal(err)
		}

		var stream bytes.Buffer
		delta := Message{Role: "assistant", Content: prompt}
		chunk := StreamChunk{ID: resp.ID, Object: "chat.completion.chunk", Created: resp.Created, Model: model,
			Choices: []Choice{{Delta: &delta}}}
		if _, typed := appendFast(nil, &chunk); !typed {
			t.Fatalf("the chunk of %q left the typed writer", prompt)
		}
		WriteSSE(&stream, &chunk)
		delta, chunk.Choices[0].FinishReason = Message{}, "stop"
		WriteSSE(&stream, &chunk)
		WriteSSEDone(&stream)
		if err := ReadSSE(&stream, nil, func(data []byte) error {
			var c StreamChunk
			bodies++
			return fc.unmarshal(data, &c)
		}); err != nil {
			t.Fatal(err)
		}
	}
	if fc.n != 0 {
		t.Errorf("%d of %d live-chat bodies fell back to the reflective path", fc.n, bodies)
	}
}

// A body the typed path turns away costs it no allocation: its check pass
// reads the whole body before anything is stored, so a rejection found at
// the last byte leaves nothing behind.
func TestTypedPathRejectsWithoutAllocating(t *testing.T) {
	for _, body := range []string{
		`{"model":"m1","messages":[{"role":"user","content":"ping"}],"temperature":0.5,"max_tokens":16}x`,
		`{"id":"c","object":"chat.completion","created":1,"model":"m1","choices":[{"index":0,"message":{"role":"assistant","content":"pong"}}],"usage":{"total_tokens":2},"seed":1}`,
		`{"max_tokens":99999999999999999999}`,
		`{"id":"c","created":-9223372036854775809}`,
		`{"temperature":1.8e308}`,
		`{"top_p":-99999999999999999999e300}`,
	} {
		data := []byte(body)
		var req ChatCompletionRequest
		var resp ChatCompletionResponse
		allocs := testing.AllocsPerRun(100, func() {
			if decodeFast(data, &req) || decodeFast(data, &resp) {
				t.Fatalf("typed path took %s", body)
			}
		})
		if allocs != 0 {
			t.Errorf("turning away %s: %.1f allocs, want 0", body, allocs)
		}
	}
}

// FuzzUnmarshalMatchesStdlib holds Unmarshal to json.Unmarshal on arbitrary
// bytes: for each wire type, three calls in a row, each into a zero value,
// must give json.Unmarshal's value (reflect.DeepEqual) and error text.
func FuzzUnmarshalMatchesStdlib(f *testing.F) {
	for _, c := range unmarshalCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsStdlib[ChatCompletionRequest](t, data, 3)
		sameAsStdlib[ChatCompletionResponse](t, data, 3)
		sameAsStdlib[StreamChunk](t, data, 3)
		sameAsStdlib[ErrorResponse](t, data, 3)
		sameAsStdlib[CompletionRequest](t, data, 3)
	})
}
