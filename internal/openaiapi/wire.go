package openaiapi

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unsafe"
)

// The chat types' struct tags are their one wire description: at init,
// fieldsOf reads each type's fields into a list, which the decoder's check
// and fill passes (fastdecode.go) and the writer (fastencode.go) walk, one
// object walker per direction, with no code written per type. A field is
// reached from its value's address by its offset and read or written as
// its kind says; this file is the package's only use of unsafe.

// field is one struct field as the typed paths read and write it.
type field struct {
	key  string // the JSON key
	lead string // what the writer puts before the value: `,"key":`
	kind kind
	omit bool    // omitempty
	off  uintptr // the field's offset in its struct
}

// kind is a field's Go type, out of the closed set the typed paths handle.
type kind uint8

const (
	kString kind = iota
	kInt
	kInt64
	kFloat64
	kBool
	kMessages
	kChoices
	kMessageRef
	kUsage
)

var kinds = map[reflect.Type]kind{
	reflect.TypeFor[string]():    kString,
	reflect.TypeFor[int]():       kInt,
	reflect.TypeFor[int64]():     kInt64,
	reflect.TypeFor[float64]():   kFloat64,
	reflect.TypeFor[bool]():      kBool,
	reflect.TypeFor[[]Message](): kMessages,
	reflect.TypeFor[[]Choice]():  kChoices,
	reflect.TypeFor[*Message]():  kMessageRef,
	reflect.TypeFor[Usage]():     kUsage,
}

var (
	requestFields  = fieldsOf[ChatCompletionRequest]()
	responseFields = fieldsOf[ChatCompletionResponse]()
	chunkFields    = fieldsOf[StreamChunk]()
	messageFields  = fieldsOf[Message]()
	choiceFields   = fieldsOf[Choice]()
	usageFields    = fieldsOf[Usage]()
)

// fieldsOf reads T's fields, in order, from their json tags. It panics on a
// struct the typed paths could not handle as encoding/json does: a field of
// a kind outside the set, embedded or unexported; a key that is empty or
// not ASCII letters, digits and '_' (json.Marshal escapes some bytes and
// ignores a tag with others); an option but omitempty; over 64 fields.
func fieldsOf[T any]() []field {
	t := reflect.TypeFor[T]()
	if t.NumField() > 64 {
		panic(fmt.Sprintf("openaiapi: %v has %d fields, more than 64", t, t.NumField()))
	}
	fs := make([]field, t.NumField())
	for i := range fs {
		sf := t.Field(i)
		key, opt, _ := strings.Cut(sf.Tag.Get("json"), ",")
		k, ok := kinds[sf.Type]
		switch {
		case !ok || sf.Anonymous || !sf.IsExported():
			panic(fmt.Sprintf("openaiapi: %v.%s: a field of type %v is not on the typed paths", t, sf.Name, sf.Type))
		case !plainKey(key):
			panic(fmt.Sprintf("openaiapi: %v.%s: json key %q is not letters, digits and '_'", t, sf.Name, key))
		case opt != "" && opt != "omitempty":
			panic(fmt.Sprintf("openaiapi: %v.%s: json option %q is not omitempty", t, sf.Name, opt))
		}
		fs[i] = field{key: key, lead: `,"` + key + `":`, kind: k, omit: opt == "omitempty", off: sf.Offset}
	}
	return fs
}

// plainKey reports whether key is a tag key json.Marshal writes as it is.
func plainKey(key string) bool {
	for _, c := range []byte(key) {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_') {
			return false
		}
	}
	return key != ""
}

// wireOf returns the fields of a chat type given by pointer, and the
// value's address; nil for any other value and for a nil pointer.
func wireOf(v any) ([]field, unsafe.Pointer) {
	switch v := v.(type) {
	case *ChatCompletionRequest:
		if v != nil {
			return requestFields, unsafe.Pointer(v)
		}
	case *ChatCompletionResponse:
		if v != nil {
			return responseFields, unsafe.Pointer(v)
		}
	case *StreamChunk:
		if v != nil {
			return chunkFields, unsafe.Pointer(v)
		}
	}
	return nil, nil
}

// object reads an object into the value at p, whose fields are fs: each a
// known key, at most once. It looks a key up from the field after the last
// one read, since a body lists its keys in declaration order as
// json.Marshal writes them.
func (d *fastDec) object(fs []field, p unsafe.Pointer) {
	d.want('{')
	var set uint64
	next := 0
	for first := true; ; first = false {
		k := d.member(first)
		if k == nil {
			return
		}
		i := next
		for i < len(fs) && fs[i].key != string(k) {
			i++
		}
		for j := 0; i == len(fs) && j < next; j++ { // then from the first
			if fs[j].key == string(k) {
				i = j
			}
		}
		if i == len(fs) || set&(1<<i) != 0 {
			d.bad = true
			return
		}
		set |= 1 << i
		next = i + 1
		d.value(fs[i].kind, unsafe.Add(p, fs[i].off))
	}
}

// value reads one value of kind k into the field at p.
func (d *fastDec) value(k kind, p unsafe.Pointer) {
	switch k {
	case kString:
		d.str((*string)(p))
	case kInt:
		d.int((*int)(p))
	case kInt64:
		d.int64((*int64)(p))
	case kFloat64:
		d.float((*float64)(p))
	case kBool:
		d.bool((*bool)(p))
	case kMessages:
		array(d, (*[]Message)(p), messageFields)
	case kChoices:
		array(d, (*[]Choice)(p), choiceFields)
	case kMessageRef:
		// A message goes into a new Message, as json.Unmarshal decodes into
		// a nil pointer; the check pass reads it into one on the stack.
		if !d.fill {
			var scratch Message
			d.object(messageFields, unsafe.Pointer(&scratch))
			return
		}
		m := new(Message)
		d.object(messageFields, unsafe.Pointer(m))
		*(**Message)(p) = m
	case kUsage:
		d.object(usageFields, p)
	}
}

// array reads an array of objects into *dst. The check pass reads each
// element into a value on the stack, counts them, and turns the body away
// when an element of *dst the fill pass would decode into is not zero; the
// fill pass stores them in slots(*dst, that count).
func array[T comparable](d *fastDec, dst *[]T, fs []field) {
	var s []T
	if d.fill {
		s = slots(*dst, d.n)
	}
	var scratch T
	d.want('[')
	n := 0
	for ; d.elem(n == 0); n++ {
		p := unsafe.Pointer(&scratch)
		if d.fill {
			p = unsafe.Pointer(&s[n])
		}
		d.object(fs, p)
	}
	if d.fill {
		*dst = s
		return
	}
	d.n = n
	if !zeroPrefix(*dst, n) {
		d.bad = true
	}
}

// object writes the value at p, whose fields are fs, in declaration order:
// each field's lead and value, or nothing for a field omitempty leaves out,
// with the first lead's comma turned into the object's '{'.
func (e *fastEnc) object(fs []field, p unsafe.Pointer) {
	start := len(e.b)
	for i := range fs {
		f := &fs[i]
		q := unsafe.Add(p, f.off)
		switch f.kind {
		case kString:
			if s := *(*string)(q); s != "" || !f.omit {
				e.b = append(e.b, f.lead...)
				e.str(s)
			}
		case kInt:
			if n := *(*int)(q); n != 0 || !f.omit {
				e.b = strconv.AppendInt(append(e.b, f.lead...), int64(n), 10)
			}
		case kInt64:
			if n := *(*int64)(q); n != 0 || !f.omit {
				e.b = strconv.AppendInt(append(e.b, f.lead...), n, 10)
			}
		case kFloat64:
			if x := *(*float64)(q); x != 0 || !f.omit {
				e.b = append(e.b, f.lead...)
				e.float(x)
			}
		case kBool:
			if b := *(*bool)(q); b || !f.omit {
				e.b = strconv.AppendBool(append(e.b, f.lead...), b)
			}
		case kMessages:
			if s := *(*[]Message)(q); len(s) != 0 || !f.omit {
				e.b = append(e.b, f.lead...)
				writeArray(e, s, messageFields)
			}
		case kChoices:
			if s := *(*[]Choice)(q); len(s) != 0 || !f.omit {
				e.b = append(e.b, f.lead...)
				writeArray(e, s, choiceFields)
			}
		case kMessageRef:
			if m := *(**Message)(q); m != nil {
				e.b = append(e.b, f.lead...)
				e.object(messageFields, unsafe.Pointer(m))
			} else if !f.omit {
				e.b = append(append(e.b, f.lead...), "null"...)
			}
		case kUsage: // a struct is never empty to omitempty
			e.b = append(e.b, f.lead...)
			e.object(usageFields, q)
		}
	}
	if len(e.b) == start {
		e.b = append(e.b, '{')
	} else {
		e.b[start] = '{'
	}
	e.b = append(e.b, '}')
}

// writeArray writes s, null when it is nil.
func writeArray[T any](e *fastEnc, s []T, fs []field) {
	if s == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i := range s {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.object(fs, unsafe.Pointer(&s[i]))
	}
	e.b = append(e.b, ']')
}
