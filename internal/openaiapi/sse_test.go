package openaiapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// fmtWriteSSE and fmtWriteSSEDone are the frames as fmt wrote them before
// WriteSSE framed its payload itself; the frames must not move by a byte.
func fmtWriteSSE(w io.Writer, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "data: %s\n\n", data)
	return err
}

func fmtWriteSSEDone(w io.Writer) error {
	_, err := fmt.Fprintf(w, "data: %s\n\n", StreamDone)
	return err
}

// countingWriter counts the Write calls a frame takes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestWriteSSEFramesMatchFprintf pins every frame WriteSSE and WriteSSEDone
// write to the fmt.Fprintf output they replaced, byte for byte, each in one
// Write; a payload that does not marshal writes nothing and fails with
// json.Marshal's error.
func TestWriteSSEFramesMatchFprintf(t *testing.T) {
	long := strings.Repeat("word ", 20000) // past the pooled frame bound
	cases := []struct {
		name string
		v    any
	}{
		{"chunk", &StreamChunk{ID: "chatcmpl-1", Object: "chat.completion.chunk", Created: 7, Model: "m",
			Choices: []Choice{{Delta: &Message{Role: "assistant", Content: "hello world"}}}}},
		{"final chunk by value", StreamChunk{ID: "chatcmpl-1", Object: "chat.completion.chunk", Created: 7, Model: "m",
			Choices: []Choice{{Delta: &Message{}, FinishReason: "stop"}}}},
		{"html and unicode", &Message{Role: "assistant", Content: "<b>a & b</b> — café   \"q\"\n\t"}},
		{"long", &Message{Content: long}},
		{"after long", &Message{Content: "short again"}},
		{"string", "plain"},
		{"nil", nil},
		{"raw", json.RawMessage(`{"a": [1, 2]}`)},
		{"map", map[string]int{"b": 2, "a": 1}},
		{"unsupported", math.Inf(1)},
		{"channel", make(chan int)},
	}
	for _, tc := range cases {
		var want bytes.Buffer
		wantErr := fmtWriteSSE(&want, tc.v)
		var got countingWriter
		err := WriteSSE(&got, tc.v)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: WriteSSE wrote %q, %v; fmt wrote %q, %v", tc.name, got.Bytes(), err, want.Bytes(), wantErr)
		}
		if wantWrites := min(want.Len(), 1); got.writes != wantWrites {
			t.Errorf("%s: %d Writes, want %d", tc.name, got.writes, wantWrites)
		}
	}
	var want bytes.Buffer
	var got countingWriter
	if err := fmtWriteSSEDone(&want); err != nil {
		t.Fatal(err)
	}
	if err := WriteSSEDone(&got); err != nil || got.String() != want.String() || got.writes != 1 {
		t.Errorf("WriteSSEDone wrote %q in %d Writes (%v), want %q", got.String(), got.writes, err, want.String())
	}
}

// failingWriter refuses every Write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// A writer's failure is the frame's error.
func TestWriteSSEReportsWriteError(t *testing.T) {
	if err := WriteSSE(failingWriter{}, &Message{Content: "x"}); err != io.ErrClosedPipe {
		t.Errorf("WriteSSE = %v, want %v", err, io.ErrClosedPipe)
	}
	if err := WriteSSEDone(failingWriter{}); err != io.ErrClosedPipe {
		t.Errorf("WriteSSEDone = %v, want %v", err, io.ErrClosedPipe)
	}
}
