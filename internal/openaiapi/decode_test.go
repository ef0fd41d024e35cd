package openaiapi

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// unmarshalCases are the bodies where a pooled decoder could part from
// json.Unmarshal; they also seed FuzzUnmarshalMatchesStdlib.
var unmarshalCases = []struct{ name, body string }{
	{"chat", `{"model":"m1","messages":[{"role":"user","content":"ping"}],"max_tokens":16}`},
	{"trailing data", `{"model":"m1","messages":[{"role":"user","content":"x"}]} {"model":"m2"}`},
	{"trailing garbage", `{"model":"m1"}x`},
	{"whitespace tail", "{\"model\":\"m1\",\"max_tokens\":3}\n \t\r\n"},
	{"leading whitespace", "\n  {\"model\":\"m1\"}"},
	{"truncated", `{"model":"m1","messages":[{"role":"user","content":"pi`},
	{"empty", ``},
	{"only whitespace", " \n"},
	{"null", `null`},
	{"array", `[{"model":"m1"}]`},
	{"string", `"m1"`},
	{"braces in strings", `{"model":"}{][","messages":[{"role":"user","content":"a\"}\\"}]}`},
	{"mismatched brackets", `{"model":"m1","messages":[}]}`},
	{"syntax error inside", `{"model":"m1","max_tokens":}`},
	{"bad escape", `{"model":"m1\x"}`},
	{"control byte", "{\"model\":\"m\x01\"}"},
	{"type error", `{"model":"m1","max_tokens":"many","messages":[{"role":"user","content":"x"}],"n":2}`},
	{"nested type error", `{"model":"m1","messages":[{"role":7,"content":"x"},{"role":"user","content":"y"}]}`},
	{"case-folded keys", `{"MODEL":"m1","Messages":[{"ROLE":"user","Content":"x"}],"Max_Tokens":4}`},
	{"duplicate keys", `{"model":"a","messages":[{"role":"user"},{"role":"x"}],"messages":[{"content":"c"}],"model":"b"}`},
	{"response", `{"id":"chat-1","object":"chat.completion","created":1,"model":"m1","choices":[{"index":0,"message":{"role":"assistant","content":"pong"},"finish_reason":"stop"}],"usage":{"prompt_tokens":1,"completion_tokens":1,"total_tokens":2}}`},
	{"stream chunk", `{"id":"chat-1","object":"chat.completion.chunk","created":1,"model":"m1","choices":[{"index":0,"delta":{"content":" pong"}}]}`},
	{"over 64 KiB", `{"model":"m1","messages":[{"role":"user","content":"` + strings.Repeat("x", 70<<10) + `"}]}`},
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

// TestUnmarshalMatchesStdlib runs every case twice in a row into each wire
// type the hop decodes: the second call reuses the first one's decoder
// whenever that one was put back.
func TestUnmarshalMatchesStdlib(t *testing.T) {
	for _, c := range unmarshalCases {
		t.Run(c.name, func(t *testing.T) {
			data := []byte(c.body)
			sameAsStdlib[ChatCompletionRequest](t, data, 2)
			sameAsStdlib[ChatCompletionResponse](t, data, 2)
			sameAsStdlib[StreamChunk](t, data, 2)
			sameAsStdlib[ErrorResponse](t, data, 2)
		})
	}
}

// TestUnmarshalAllocsOnlyValues pins the point of the pool: a chat request
// body decoded through Unmarshal allocates its values — the model, the
// messages slice, the message's role and content — and nothing of the
// decoder's own. json.Unmarshal measured 11 on the first body (go1.24
// linux/amd64): its decodeState, the scanner's parse stack and the error
// context besides the values. The second body's content hides a quote and
// a brace behind escapes, which must not send it down json.Unmarshal's
// path; unescaping costs its content one buffer more.
func TestUnmarshalAllocsOnlyValues(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for _, c := range []struct {
		body   string
		values float64 // "m1", the messages slice, "user" and the content
	}{
		{`{"model":"m1","messages":[{"role":"user","content":"ping"}],"max_tokens":16}`, 4},
		{`{"model":"m1","messages":[{"role":"user","content":"say \"}\" now"}]}`, 5},
	} {
		body := []byte(c.body)
		var req ChatCompletionRequest
		allocs := testing.AllocsPerRun(200, func() {
			req = ChatCompletionRequest{}
			if err := Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.values {
			t.Errorf("Unmarshal of %s = %.1f allocs, want %.0f (its values)", c.body, allocs, c.values)
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
