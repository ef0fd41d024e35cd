package openaiapi

// fallbackCounter counts the chat bodies that its unmarshal sends past the
// typed path to the reflective one.
type fallbackCounter struct{ n int }

// unmarshal is Unmarshal, counting a body the typed path turned away.
func (c *fallbackCounter) unmarshal(data []byte, v any) error {
	if decodeFast(data, v) {
		return nil
	}
	c.n++
	return Unmarshal(data, v)
}
