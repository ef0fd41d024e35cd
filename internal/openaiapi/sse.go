package openaiapi

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
)

// SSE (server-sent events) framing for streaming responses (§4.7: "The
// interface also supports streaming responses").

// StreamDone is the terminal SSE sentinel.
const StreamDone = "[DONE]"

// ErrStreamTruncated reports a stream that ended (clean EOF) without the
// [DONE] sentinel: the connection was cut mid-stream. Callers distinguish it
// from transport errors with errors.Is; the deltas delivered before the cut
// were real, but the stream as a whole must not be treated as complete.
var ErrStreamTruncated = errors.New("openaiapi: SSE stream truncated before [DONE]")

// sseFrame is one event's bytes, drawn from sseFrames: a frame costs no
// buffer of its own, and the payload is not boxed for a format verb.
type sseFrame struct {
	b []byte
}

var sseFrames = sync.Pool{New: func() any { return new(sseFrame) }}

// maxPooledFrame is the largest frame buffer sseFrames keeps.
const maxPooledFrame = 64 << 10

// sseDone is the terminal event, framed once.
var sseDone = []byte("data: " + StreamDone + "\n\n")

// WriteSSE writes one event carrying v as JSON: "data: ", json.Marshal's
// bytes (AppendJSON's, which are the same) and a blank line, in one Write.
// A v that does not marshal writes nothing and returns json.Marshal's
// error.
//
//first:hotpath on a pooled frame: pinned by TestWriteSSEZeroAlloc (encode_test.go)
func WriteSSE(w io.Writer, v interface{}) error {
	f := sseFrames.Get().(*sseFrame)
	b, err := AppendJSON(append(f.b[:0], "data: "...), v)
	if err == nil {
		b = append(b, "\n\n"...)
		_, err = w.Write(b)
	}
	f.b = b
	if cap(b) <= maxPooledFrame {
		sseFrames.Put(f)
	}
	return err
}

// WriteSSEDone writes the terminal sentinel.
func WriteSSEDone(w io.Writer) error {
	_, err := w.Write(sseDone)
	return err
}

// StreamChunk is one streamed chat delta.
type StreamChunk struct {
	ID      string   `json:"id"`
	Object  string   `json:"object"`
	Created int64    `json:"created"`
	Model   string   `json:"model"`
	Choices []Choice `json:"choices"`
}

// ReadSSE consumes an SSE stream, invoking onData for every event payload
// until [DONE]. buf is the line buffer, which a caller that reads stream
// after stream keeps from one to the next; a line longer than buf is read
// into a larger buffer ReadSSE makes, up to 8 MiB, and a nil buf starts at
// bufio's default size. The payload is lent from that buffer: it is valid
// only until onData returns, so onData must not keep it (decode it, or copy
// what it needs). Per the SSE specification, the colon after the field name
// may be followed by at most one optional space — `data:payload` is as
// valid as `data: payload` — so both forms are accepted (our own WriteSSE
// emits the spaced form, but other servers legitimately do not).
//
// A stream that reaches EOF without the [DONE] sentinel was cut mid-flight
// (endpoint death, dropped connection): ReadSSE returns ErrStreamTruncated
// rather than silently reporting success, so callers never mistake a
// partial answer for a complete one.
func ReadSSE(r io.Reader, buf []byte, onData func(data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, 8<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if !bytes.HasPrefix(line, []byte("data:")) {
			continue
		}
		payload := line[len("data:"):]
		if len(payload) > 0 && payload[0] == ' ' {
			payload = payload[1:]
		}
		if len(payload) == 0 {
			// Bare `data:` / `data: ` heartbeats carry nothing a JSON chunk
			// consumer can parse; delivering them would abort the stream.
			continue
		}
		if string(payload) == StreamDone {
			return nil
		}
		if err := onData(payload); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return ErrStreamTruncated
}

// CollectStreamText reassembles the full assistant text from a chat SSE
// stream.
func CollectStreamText(r io.Reader) (string, error) {
	var b strings.Builder
	err := ReadSSE(r, nil, func(data []byte) error {
		var chunk StreamChunk
		if err := Unmarshal(data, &chunk); err != nil {
			return err
		}
		for _, c := range chunk.Choices {
			if c.Delta != nil {
				b.WriteString(c.Delta.Content)
			}
		}
		return nil
	})
	return b.String(), err
}
