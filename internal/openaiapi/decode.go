package openaiapi

import (
	"bytes"
	"encoding/json"
	"sync"
)

// maxPooledBody is the largest body whose decoder goes back to the pool: a
// decoder keeps the buffer it grew, so one huge body would otherwise pin
// that much memory for every later call.
const maxPooledBody = 64 << 10

// pooledDecoder is a json.Decoder over a bytes.Reader that each call points
// at its own data.
type pooledDecoder struct {
	r   bytes.Reader
	dec *json.Decoder
}

var decoders = sync.Pool{New: func() any {
	p := new(pooledDecoder)
	p.dec = json.NewDecoder(&p.r)
	return p
}}

// Unmarshal is json.Unmarshal for wire bodies: same values, same errors,
// but without json.Unmarshal's per-call scaffolding, so a decode allocates
// only the values it stores. The chat request, response and stream chunk
// take a typed path that reads them without reflection (fastdecode.go);
// every other body, and a chat body that path turns away, goes to a pooled
// json.Decoder, whose own state (its decodeState, the scanner's parse
// stack, the error context) comes from a pool instead of being built per
// call.
//
// The pooled decoder is handed one JSON object, the body up to the brace
// that closes its first one, and only when nothing but whitespace follows
// that brace; anything else (an array or scalar body, trailing data, an
// unclosed object) goes to json.Unmarshal. The decoder checks the object's
// syntax before it stores anything: if that check fails, v is untouched
// and json.Unmarshal words the error for the whole body. Otherwise the
// decoder ran json.Unmarshal's own decode on the same bytes, at the same
// offsets, so its value and error are json.Unmarshal's. A decoder goes back
// to the pool only after a call with no error — it then consumed all it
// was given — and at most maxPooledBody bytes.
func Unmarshal(data []byte, v any) error {
	if decodeFast(data, v) {
		return nil
	}
	n := objectLen(data)
	if n == 0 {
		return json.Unmarshal(data, v)
	}
	p := decoders.Get().(*pooledDecoder)
	p.r.Reset(data[:n])
	start := p.dec.InputOffset()
	err := p.dec.Decode(v)
	p.r.Reset(nil) // hold no reference to the caller's bytes
	switch {
	case err == nil:
		if n <= maxPooledBody {
			decoders.Put(p)
		}
		return nil
	case p.dec.InputOffset() == start:
		return json.Unmarshal(data, v) // the syntax check failed: v is untouched
	default:
		return err
	}
}

// objectLen returns the length of data up to the brace that closes its
// first object, counting braces and brackets outside strings, or 0 when
// data does not start (after whitespace) with '{', never closes it, or has
// more than whitespace after the close. It checks no other syntax: for
// valid JSON the close it finds is the object's own, and a wrong answer on
// invalid JSON costs only json.Unmarshal's path, since the decoder then
// fails the syntax check of the bytes it was handed.
func objectLen(data []byte) int {
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return 0
	}
	depth, inString := 0, false
	for ; i < len(data); i++ {
		c := data[i]
		if inString {
			switch c {
			case '\\':
				i++ // the escaped byte cannot end the string
			case '"':
				inString = false
			}
			continue
		}
		switch c {
		case '"':
			inString = true
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				if skipSpace(data, i+1) != len(data) {
					return 0
				}
				return i + 1
			}
		}
	}
	return 0
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
