package openaiapi

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// The chat bodies — the request the gateway decodes, the response and the
// stream chunk the SDK decodes — take a typed path inside Unmarshal that
// reads them without reflection. It accepts only what it can store exactly
// as json.Unmarshal would:
//   - exact-case known keys, each at most once;
//   - strings with no '\', no byte below 0x20 and valid UTF-8, which
//     json.Unmarshal copies as they are;
//   - integers with no fraction or exponent, in the field's range, and
//     floats on the JSON number grammar below 10^308, read by
//     strconv.ParseFloat as json.Unmarshal reads them;
//   - true and false, and no null;
//   - nothing but whitespace after the object;
//   - a target whose array elements the body fills are zero: json.Unmarshal
//     decodes an array into the slice's own elements, up to its capacity,
//     so a non-zero one would keep the fields the body omits. A zero value
//     passes, and so does the gateway's pooled request, whose Messages
//     array is cleared before it goes back.
//
// Anything else goes to the reflective path with the target as it was
// given. The typed path reads a body twice: a check pass that stores and
// allocates nothing and counts the body's one array, then, for a body it
// accepted whole, a fill pass that stores, allocating only the values —
// the strings, the array, a choice's message.
type fastDec struct {
	data []byte
	i    int
	bad  bool // the body is not one the typed path accepts
	fill bool // store what is read: false on the check pass
	n    int  // the length of the body's one array, counted by the check pass
}

// decodeFast decodes data into v on the typed path and reports whether it
// did; on false v is untouched.
//
//first:hotpath for a body it turns away: pinned by TestTypedPathRejectsWithoutAllocating (decode_test.go)
func decodeFast(data []byte, v any) bool {
	fs, p := wireOf(v)
	if fs == nil {
		return false
	}
	// The check pass must read one object and nothing but whitespace after.
	d := fastDec{data: data}
	if d.object(fs, p); d.bad || skipSpace(data, d.i) != len(data) {
		return false
	}
	d.i, d.fill = 0, true
	d.object(fs, p)
	return true
}

// zeroPrefix reports whether the elements a body of n array elements
// decodes into, s's own up to its capacity, are all zero.
func zeroPrefix[T comparable](s []T, n int) bool {
	var zero T
	for _, e := range s[:min(n, cap(s))] {
		if e != zero {
			return false
		}
	}
	return true
}

// slots returns the slice an array of n elements fills: s's own array when
// it has room, as json.Unmarshal uses it, and a new one otherwise. It is
// never nil, since json.Unmarshal stores an empty array as an empty slice.
func slots[T any](s []T, n int) []T {
	if s != nil && cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// peek returns the next byte after whitespace, or 0 at the end of the data
// and once d has failed.
func (d *fastDec) peek() byte {
	d.i = skipSpace(d.data, d.i)
	if d.bad || d.i == len(d.data) {
		return 0
	}
	return d.data[d.i]
}

// want consumes c, after whitespace.
func (d *fastDec) want(c byte) {
	if d.peek() != c {
		d.bad = true
		return
	}
	d.i++
}

// member reads the key of the next member of the object whose '{' (first)
// or previous value d has just consumed, and the ':' after it. It returns
// nil at the '}' that closes the object, which it consumes, and once d has
// failed.
func (d *fastDec) member(first bool) []byte {
	c := d.peek()
	if c == '}' {
		d.i++
		return nil
	}
	if !first {
		if c != ',' {
			d.bad = true
			return nil
		}
		d.i++
	}
	k := d.raw()
	d.want(':')
	if d.bad {
		return nil
	}
	return k
}

// elem reports whether an element follows in the array whose '[' (first)
// or previous element d has just consumed; it consumes the ',' before the
// element, or the ']' that closes the array.
func (d *fastDec) elem(first bool) bool {
	c := d.peek()
	if c == ']' {
		d.i++
		return false
	}
	if !first {
		if c != ',' {
			d.bad = true
			return false
		}
		d.i++
	}
	return !d.bad
}

// strClass classes the bytes of a string: strBad for '\\' and the control
// bytes, which json.Unmarshal unescapes or rejects and json.Marshal
// escapes, strWide for a byte of a multi-byte sequence, strEscaped for the
// other bytes json.Marshal escapes ('"', '<', '>', '&'), which a span the
// decoder reads may hold but the typed writer may not, 0 for the rest.
var strClass = func() (t [256]uint8) {
	for c := range ' ' {
		t[c] = strBad
	}
	t['\\'] = strBad
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = strWide
	}
	for _, c := range `"<>&` {
		t[c] = strEscaped
	}
	return t
}()

const (
	strBad = 1 << iota
	strWide
	strEscaped
)

// raw reads a string that has nothing to unescape and returns its bytes. It
// takes the span up to the next '"'; an escaped quote ends it early, on a
// '\\' the check fails. The check pass tests the span's bytes, and the fill
// pass, which runs only on a body the check pass accepted whole, takes the
// span as found.
func (d *fastDec) raw() []byte {
	if d.peek() != '"' {
		d.bad = true
		return nil
	}
	start := d.i + 1
	n := bytes.IndexByte(d.data[start:], '"')
	if n < 0 {
		d.bad = true
		return nil
	}
	str := d.data[start : start+n]
	d.i = start + n + 1
	if d.fill {
		return str
	}
	var class uint8
	for _, c := range str {
		class |= strClass[c]
	}
	if class&strBad != 0 || class&strWide != 0 && !utf8.Valid(str) {
		d.bad = true
		return nil
	}
	return str
}

func (d *fastDec) str(dst *string) {
	s := d.raw()
	if d.fill {
		*dst = string(s)
	}
}

func (d *fastDec) bool(dst *bool) {
	var lit string
	switch d.peek() {
	case 't':
		lit = "true"
	case 'f':
		lit = "false"
	default:
		d.bad = true
		return
	}
	if len(d.data)-d.i < len(lit) || string(d.data[d.i:d.i+len(lit)]) != lit {
		d.bad = true
		return
	}
	d.i += len(lit)
	if d.fill {
		*dst = lit == "true"
	}
}

// number reads a number on the JSON grammar and reports whether it is an
// integer: no fraction and no exponent.
func (d *fastDec) number() (num []byte, integer bool) {
	d.peek()
	data, start := d.data, d.i
	j := start
	if j < len(data) && data[j] == '-' {
		j++
	}
	if j < len(data) && data[j] == '0' {
		j++
	} else if j = digits(data, j); j == -1 {
		d.bad = true
		return nil, false
	}
	integer = true
	if j < len(data) && data[j] == '.' {
		integer = false
		if j = digits(data, j+1); j == -1 {
			d.bad = true
			return nil, false
		}
	}
	if j < len(data) && (data[j] == 'e' || data[j] == 'E') {
		integer = false
		if j++; j < len(data) && (data[j] == '+' || data[j] == '-') {
			j++
		}
		if j = digits(data, j); j == -1 {
			d.bad = true
			return nil, false
		}
	}
	d.i = j
	return data[start:j], integer
}

// digits returns the index past the run of decimal digits at data[j], or -1
// when there is none.
func digits(data []byte, j int) int {
	k := j
	for k < len(data) && '0' <= data[k] && data[k] <= '9' {
		k++
	}
	if k == j {
		return -1
	}
	return k
}

// integer reads an integer that fits in bits. It converts the digits
// itself: strconv would allocate its error for one out of range.
func (d *fastDec) integer(bits int) int64 {
	num, integer := d.number()
	if d.bad || !integer {
		d.bad = true
		return 0
	}
	neg := num[0] == '-'
	if neg {
		num = num[1:]
	}
	limit := uint64(1)<<(bits-1) - 1 // the largest magnitude that fits
	if neg {
		limit++
	}
	var u uint64
	for _, c := range num {
		if u > limit/10 || u*10 > limit-uint64(c-'0') {
			d.bad = true
			return 0
		}
		u = u*10 + uint64(c-'0')
	}
	if neg {
		return -int64(u)
	}
	return int64(u)
}

func (d *fastDec) int(dst *int) {
	n := d.integer(strconv.IntSize)
	if d.fill {
		*dst = int(n)
	}
}

func (d *fastDec) int64(dst *int64) {
	n := d.integer(64)
	if d.fill {
		*dst = n
	}
}

func (d *fastDec) float(dst *float64) {
	num, _ := d.number()
	// Longer than any float64 needs, converting it would allocate; a number
	// that may overflow would make strconv allocate its error.
	if d.bad || len(num) > 32 || !belowOverflow(num) {
		d.bad = true
		return
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		d.bad = true
	}
	if d.fill {
		*dst = f
	}
}

// belowOverflow reports whether num, a number on the JSON grammar, is below
// 10^308 in magnitude, so that strconv.ParseFloat cannot overflow on it. It
// bounds the value by its integer digits and its exponent alone, so a few
// numbers in range, such as 0.1e309, are turned away too.
func belowOverflow(num []byte) bool {
	i, ints := 0, 0
	if num[0] == '-' {
		i++
	}
	for ; i < len(num) && '0' <= num[i] && num[i] <= '9'; i++ {
		ints++
	}
	for i < len(num) && num[i] != 'e' && num[i] != 'E' {
		i++
	}
	exp, sign := 0, 1
	if i < len(num) {
		i++
		if num[i] == '-' {
			sign = -1
		}
		if num[i] == '+' || num[i] == '-' {
			i++
		}
		for ; i < len(num); i++ {
			exp = min(exp*10+int(num[i]-'0'), 1000)
		}
	}
	return ints+sign*exp <= 308
}
