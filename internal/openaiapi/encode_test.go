package openaiapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
)

// escapeClasses are strings json.Marshal writes unchanged (plain) and
// strings it escapes or rewrites: each class the typed writer must send to
// json.Marshal.
var escapeClasses = []struct {
	s     string
	plain bool
}{
	{"", true}, {"ping", true}, {"bench c1 q0000007 the quick brown fox", true},
	{"a/b ~ DEL\x7f", true}, {"naïve café π ≈ 3.14", true}, {"\U0001F600", true},
	{`say "hi"`, false}, {`back\slash`, false}, {"<b>", false}, {"a > b", false}, {"fish & chips", false},
	{"nul\x00", false}, {"unit\x1f", false}, {"line\nbreak", false}, {"tab\there", false}, {"cr\r", false},
	{"bad \xff utf8", false}, {"cut rune \xc3", false}, {"\xed\xa0\x80", false},
	{"line sep \u2028", false}, {"para sep \u2029", false},
}

// encodeFloats are the float64s at encoding/json's format edges, then the
// values json.Marshal turns away.
var encodeFloats = []float64{
	0, 0.7, 1, -2.5, 1e-6, 9.99999e-7, 1e-7, 1e20, 1e21, 9.99e20, -1e21, 123456789012345678,
	5e-324, 1.7e308, math.MaxFloat64, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
}

// encodeValues builds the chat bodies the typed writer covers from a
// string, a number, a float and a shape: which slices are nil or empty,
// which pointers are nil, which omitempty fields are zero.
func encodeValues(s string, n int64, f float64, shape uint8) []any {
	msgs := []Message{{Role: "user", Content: s}, {Role: s, Content: "x"}}
	switch shape % 4 {
	case 0:
		msgs = nil
	case 1:
		msgs = msgs[:0]
	case 2:
		msgs = msgs[:1]
	}
	req := &ChatCompletionRequest{Model: s, Messages: msgs, Stream: shape&4 != 0}
	if shape&8 != 0 {
		req.MaxTokens, req.Temperature, req.TopP, req.N, req.User = int(n), f, -f, int(n>>3), s
	}
	msg := &Message{Role: "assistant", Content: s}
	choices := []Choice{{Index: int(n), Message: msg, FinishReason: "stop"}, {Index: 1, Text: s, Delta: msg}, {}}
	switch shape >> 4 % 4 {
	case 0:
		choices = nil
	case 1:
		choices = choices[:0]
	case 2:
		choices = choices[:1]
	}
	resp := &ChatCompletionResponse{ID: s, Object: "chat.completion", Created: n, Model: s, Choices: choices,
		Usage: Usage{PromptTokens: int(n), CompletionTokens: 16, TotalTokens: int(n) + 16}}
	chunk := &StreamChunk{ID: "c", Object: s, Created: -n, Model: "m", Choices: choices}
	if shape&64 != 0 {
		resp.Usage = Usage{}
		chunk.Choices = []Choice{{Delta: &Message{}}}
	}
	return []any{req, resp, chunk}
}

// sameAsMarshal appends v through AppendJSON onto an empty dst and onto a
// prefix with spare capacity, and fails unless each gives json.Marshal's
// bytes after the prefix, or json.Marshal's error text with dst returned
// as given; the prefix is never touched.
func sameAsMarshal(t *testing.T, v any) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	for _, prefix := range []string{"", "data: "} {
		dst := make([]byte, len(prefix), len(prefix)+8)
		copy(dst, prefix)
		got, err := AppendJSON(dst, v)
		if string(dst) != prefix {
			t.Fatalf("%T: dst's prefix became %q", v, dst)
		}
		if errText(err) != errText(wantErr) {
			t.Fatalf("%T %+v: err %q, json.Marshal %q", v, v, errText(err), errText(wantErr))
		}
		if err != nil {
			if len(got) != len(dst) || &got[:1][0] != &dst[:1][0] {
				t.Fatalf("%T: on an error AppendJSON returned %q, not dst", v, got)
			}
			continue
		}
		if !strings.HasPrefix(string(got), prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("%T %+v:\n got %q\nwant %q", v, v, got, prefix+string(want))
		}
	}
}

// TestAppendJSONMatchesMarshal writes every escape class, float edge and
// shape through AppendJSON, and a string takes the typed path exactly when
// json.Marshal writes it unchanged.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	for _, c := range escapeClasses {
		for shape := range 128 {
			for _, v := range encodeValues(c.s, 7, 0.5, uint8(shape)) {
				sameAsMarshal(t, v)
			}
		}
		req := &ChatCompletionRequest{Model: "m", Messages: []Message{{Role: "user", Content: c.s}}}
		if _, typed := appendFast(nil, req); typed != c.plain {
			t.Errorf("%q: typed path taken %v, want %v", c.s, typed, c.plain)
		}
	}
	for _, f := range encodeFloats {
		for _, v := range encodeValues("m", -3, f, 8) {
			sameAsMarshal(t, v)
		}
		_, typed := appendFast(nil, &ChatCompletionRequest{Temperature: f})
		if want := !math.IsNaN(f) && !math.IsInf(f, 0); typed != want {
			t.Errorf("temperature %v: typed path taken %v, want %v", f, typed, want)
		}
	}
	for _, n := range []int64{0, 1, -1, math.MaxInt32, math.MinInt64, math.MaxInt64} {
		for _, v := range encodeValues("m", n, 1, 8+2+32) {
			sameAsMarshal(t, v)
		}
	}
	for _, v := range []any{
		(*ChatCompletionRequest)(nil), (*ChatCompletionResponse)(nil), (*StreamChunk)(nil),
		ChatCompletionRequest{Model: "by value"}, &CompletionRequest{Model: "m"}, nil, 3, "s",
	} {
		sameAsMarshal(t, v)
	}
}

// A chat body written on the typed path into a buffer with room allocates
// nothing: not the request the SDK sends, nor the reply the gateway
// caches, nor a stream chunk.
func TestAppendJSONZeroAlloc(t *testing.T) {
	msg := Message{Role: "assistant", Content: "bench c1 q0000007 the quick brown fox"}
	for _, v := range []any{
		&ChatCompletionRequest{Model: "meta-llama/Meta-Llama-3.1-8B-Instruct", Messages: []Message{{Role: "user", Content: msg.Content}}, MaxTokens: 16, Temperature: 0.7},
		&ChatCompletionResponse{ID: "chatcmpl-00000007", Object: "chat.completion", Created: 1_760_000_000, Model: "m",
			Choices: []Choice{{Message: &msg, FinishReason: "stop"}}, Usage: Usage{PromptTokens: 9, CompletionTokens: 16, TotalTokens: 25}},
		&StreamChunk{ID: "chatcmpl-00000007", Object: "chat.completion.chunk", Created: 1_760_000_000, Model: "m", Choices: []Choice{{Delta: &msg}}},
	} {
		buf := make([]byte, 0, 1024)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := AppendJSON(buf, v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendJSON(%T): %.1f allocs, want 0", v, allocs)
		}
	}
}

// WriteSSE frames an event in a pooled buffer: once the pool holds a frame,
// writing an event allocates nothing.
func TestWriteSSEZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	delta := Message{Role: "assistant", Content: "the quick brown fox"}
	chunk := &StreamChunk{ID: "chatcmpl-1", Object: "chat.completion.chunk", Created: 1, Model: "m", Choices: []Choice{{Delta: &delta}}}
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteSSE(io.Discard, chunk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteSSE: %.1f allocs, want 0", allocs)
	}
}

// FuzzAppendJSONMatchesStdlib holds AppendJSON to json.Marshal on chat
// bodies built from arbitrary strings, numbers and shapes: the same bytes
// or the same error text, onto an empty dst and onto a prefix, which is
// never touched.
func FuzzAppendJSONMatchesStdlib(f *testing.F) {
	for _, c := range escapeClasses {
		f.Add(c.s, int64(7), 0.5, uint8(2|8|32))
	}
	for _, x := range encodeFloats {
		f.Add("m", int64(-3), x, uint8(8))
	}
	for shape := range 128 {
		f.Add("ping", int64(shape), 1.0, uint8(shape))
	}
	f.Fuzz(func(t *testing.T, s string, n int64, x float64, shape uint8) {
		for _, v := range encodeValues(s, n, x, shape) {
			sameAsMarshal(t, v)
		}
	})
}

// BenchmarkAppendJSON times the typed writer against json.Marshal on the
// live stack's chat bodies: go test -run '^$' -bench AppendJSON ./internal/openaiapi
func BenchmarkAppendJSON(b *testing.B) {
	prompt := "bench c1 q0000007 the quick brown fox jumps over the lazy dog and keeps on running"
	msg := Message{Role: "assistant", Content: prompt}
	for _, c := range []struct {
		name string
		v    any
	}{
		{"request", &ChatCompletionRequest{Model: "meta-llama/Meta-Llama-3.1-8B-Instruct", Messages: []Message{{Role: "user", Content: prompt}}, MaxTokens: 16}},
		{"reply", &ChatCompletionResponse{ID: "chatcmpl-00000007", Object: "chat.completion", Created: 1_760_000_000, Model: "meta-llama/Meta-Llama-3.1-8B-Instruct",
			Choices: []Choice{{Message: &msg, FinishReason: "stop"}}, Usage: Usage{PromptTokens: 20, CompletionTokens: 16, TotalTokens: 36}}},
		{"chunk", &StreamChunk{ID: "chatcmpl-00000007", Object: "chat.completion.chunk", Created: 1_760_000_000, Model: "meta-llama/Meta-Llama-3.1-8B-Instruct", Choices: []Choice{{Delta: &msg}}}},
	} {
		buf := make([]byte, 0, 1024)
		b.Run(c.name+"/AppendJSON", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				buf, _ = AppendJSON(buf[:0], c.v)
			}
		})
		b.Run(c.name+"/json.Marshal", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				buf, _ = json.Marshal(c.v)
			}
		})
	}
}
