package openaiapi

import "encoding/json"

// Unmarshal is json.Unmarshal for wire bodies: same values, same errors.
// The chat request, response and stream chunk take a typed path that reads
// them without reflection (fastdecode.go); every other body, and a chat
// body that path turns away, goes to json.Unmarshal.
func Unmarshal(data []byte, v any) error {
	if decodeFast(data, v) {
		return nil
	}
	return json.Unmarshal(data, v)
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
