package openaiapi

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendJSON appends json.Marshal(v)'s bytes to dst and returns the
// extended buffer. On an error it returns dst as it was and json.Marshal's
// error.
//
// The chat request, response and stream chunk, given as pointers, take a
// typed path that writes them without reflection, the mirror of the typed
// decode in fastdecode.go. It writes only what it can write byte for byte
// as json.Marshal does:
//   - the fields in declaration order, omitempty as the tags say, and null
//     for a nil slice;
//   - integers by strconv.AppendInt, and floats as encoding/json formats a
//     float64 (the shortest 'f' form, 'e' below 1e-6 and from 1e21 up, the
//     exponent's leading zero dropped);
//   - strings whose bytes json.Marshal writes unchanged: no '"', '\\', '<',
//     '>', '&' or control byte, valid UTF-8, and no U+2028 or U+2029.
//
// Anything else — such a string, a NaN or ±Inf (which json.Marshal turns
// away with its own error), a nil pointer, any other type — sends the whole
// value to json.Marshal, with dst as it was given.
//
//first:hotpath on the typed path: pinned by TestAppendJSONZeroAlloc (encode_test.go)
func AppendJSON(dst []byte, v any) ([]byte, error) {
	if b, ok := appendFast(dst, v); ok {
		return b, nil
	}
	out, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, out...), nil
}

// fastEnc is the typed path's output: the buffer it appends to, and
// whether it met something it cannot write as json.Marshal does.
type fastEnc struct {
	b   []byte
	bad bool
}

// appendFast appends v on the typed path and reports whether it did; on
// false, the bytes past len(dst) mean nothing.
//
//first:hotpath reached through AppendJSON's pin
func appendFast(dst []byte, v any) ([]byte, bool) {
	fs, p := wireOf(v)
	if fs == nil {
		return dst, false
	}
	e := fastEnc{b: dst}
	if e.object(fs, p); e.bad {
		return dst, false
	}
	return e.b, true
}

// str writes s quoted when json.Marshal would write its bytes unchanged.
func (e *fastEnc) str(s string) {
	var class uint8
	for i := 0; i < len(s); i++ {
		class |= strClass[s[i]]
	}
	if class&(strBad|strEscaped) != 0 || class&strWide != 0 && !plainWide(s) {
		e.bad = true
		return
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// plainWide reports whether json.Marshal writes the multi-byte sequences
// of s unchanged: it replaces invalid UTF-8 and escapes U+2028 and U+2029.
func plainWide(s string) bool {
	return utf8.ValidString(s) && !strings.Contains(s, "\u2028") && !strings.Contains(s, "\u2029")
}

// float writes f as encoding/json's float encoder writes a float64.
func (e *fastEnc) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1] // e-07 is written e-7
		e.b = e.b[:n-1]
	}
}
