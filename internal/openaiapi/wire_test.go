package openaiapi

import (
	"fmt"
	"strings"
	"testing"
)

// fieldsOf takes a struct of the nine kinds and panics, at init, on one the
// typed paths could not read and write as encoding/json does.
func TestFieldsOfGuard(t *testing.T) {
	type all struct {
		S  string    `json:"s"`
		I  int       `json:"i,omitempty"`
		I6 int64     `json:"i6"`
		F  float64   `json:"f"`
		B  bool      `json:"b"`
		MS []Message `json:"ms"`
		CS []Choice  `json:"cs"`
		M  *Message  `json:"m_1,omitempty"`
		U  Usage     `json:"u"`
	}
	for _, c := range []struct {
		name   string
		fields func() []field
		panic  string // what the panic says; "" for none
	}{
		{"every kind", fieldsOf[all], ""},
		{"uint8 field", fieldsOf[struct {
			A uint8 `json:"a"`
		}], "type uint8"},
		{"key json.Marshal escapes", fieldsOf[struct {
			A string `json:"a<b"`
		}], `key "a<b"`},
		{"string option", fieldsOf[struct {
			A int `json:"x,string"`
		}], `option "string"`},
		{"no tag", fieldsOf[struct{ A string }], `key ""`},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if got := fmt.Sprint(r); (r == nil) != (c.panic == "") || !strings.Contains(got, c.panic) {
					t.Errorf("recovered %v, want a panic saying %q", r, c.panic)
				}
			}()
			fs := c.fields()
			for i, f := range fs {
				if f.kind != kind(i) {
					t.Errorf("field %d (%s) has kind %d", i, f.key, f.kind)
				}
				if want := i == 1 || i == 7; f.omit != want {
					t.Errorf("field %d (%s): omit %v, want %v", i, f.key, f.omit, want)
				}
			}
			if len(fs) != 9 || fs[7].lead != `,"m_1":` {
				t.Errorf("fields %+v", fs)
			}
		})
	}
}
