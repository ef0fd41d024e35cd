package fabric

import (
	"reflect"
	"testing"
)

// FuzzUnmarshalPayload feeds arbitrary bytes to the fabric's payload decoder
// as each of the three payloads that cross the hub as bytes (a task's
// InferRequest or EmbedRequest, a result's InferResult): decoding never
// panics, and whatever decodes survives a round trip — re-marshalled and
// decoded again it is the same value, so a payload relayed by a hop that
// re-encodes it is not altered.
func FuzzUnmarshalPayload(f *testing.F) {
	for _, s := range []string{
		``, `{}`, `null`, `[]`, `{broken`, `{"model":7}`,
		`{"model":"m","prompt_tokens":-1,"max_tokens":9223372036854775807,"want_text":true}`,
		`{"model":"m","inputs":null,"prompt":" "}`,
		`{"model":"m","text":"t","completion_tokens":3,"queue_wait_ns":1e3,"serve_time_ns":-5,"instance_id":2}`,
	} {
		f.Add([]byte(s))
	}
	f.Add(MarshalPayload(InferRequest{Model: "meta-llama/Meta-Llama-3.1-8B-Instruct", PromptTok: 220, OutputTok: 182, Prompt: "hi"}))
	f.Add(MarshalPayload(EmbedRequest{Model: "nvidia/NV-Embed-v2", Inputs: []string{"alpha", "beta"}}))
	f.Add(MarshalPayload(InferResult{Model: "m", Text: "ok", PromptTok: 4, OutputTok: 2, QueueWait: 7, ServeTime: 9, InstanceID: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() interface{}{
			func() interface{} { return new(InferRequest) },
			func() interface{} { return new(EmbedRequest) },
			func() interface{} { return new(InferResult) },
		} {
			v := fresh()
			if err := UnmarshalPayload(data, v); err != nil {
				continue
			}
			again := fresh()
			if err := UnmarshalPayload(MarshalPayload(v), again); err != nil {
				t.Fatalf("%T decoded from %q does not decode after re-marshalling: %v", v, data, err)
			}
			if !reflect.DeepEqual(v, again) {
				t.Fatalf("%T round trip of %q: %+v became %+v", v, data, v, again)
			}
		}
	})
}
