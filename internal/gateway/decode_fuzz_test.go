package gateway

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The request body the gateway decodes outside openaiapi's fuzzed parsers.
// The target's property is the handler contract: arbitrary bytes come back
// as an error, never a panic, and whatever decodes is what the handler acts
// on. The seed corpus lives under testdata/fuzz/<target> (run in plain `go
// test` too); `make fuzz` fuzzes it briefly on top.

// FuzzDecodeCreateBatch: a POST /v1/batches body that decodes names a model,
// and re-encoding it is stable: marshalled, decoded again and marshalled once
// more it gives the same bytes, so nothing the batch runner is handed depends
// on how the client spelled it.
func FuzzDecodeCreateBatch(f *testing.F) {
	for _, s := range []string{
		``, `{}`, `null`, `[]`, `{broken`, `{"model":""}`, `{"model":7}`,
		`{"model":"m","input_lines":null}`,
		`{"model":"m","input_lines":[{"custom_id":"a","body":{"model":"m","prompt":"p","max_tokens":4}}],"endpoint":"sophia"}`,
		`{"model":"m","input_lines":[{"body":{"messages":[{"role":"user","content":"x"}]}},{"custom_id":3}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeCreateBatch(body)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "malformed JSON: ") && err.Error() != "model is required" {
				t.Fatalf("%q: unexpected error %v", body, err)
			}
			return
		}
		if req.Model == "" {
			t.Fatalf("%q decoded without a model", body)
		}
		first, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%q: decoded request does not marshal: %v", body, err)
		}
		again, err := decodeCreateBatch(first)
		if err != nil {
			t.Fatalf("%q: re-marshalled request %s does not decode: %v", body, first, err)
		}
		if second, _ := json.Marshal(again); !bytes.Equal(first, second) {
			t.Fatalf("%q: re-encoding is not stable: %s, then %s", body, first, second)
		}
	})
}
