package gateway

import (
	"slices"
	"strings"
	"testing"
)

// fieldsPieces is streamChat's split as it was before it cut the content in
// place: strings.Fields, then every chunkWords words joined by single
// spaces, each piece but the first after one more. It is the oracle
// streamPiece must match byte for byte.
func fieldsPieces(content string) []string {
	words := strings.Fields(content)
	var pieces []string
	for i := 0; i < len(words); i += chunkWords {
		piece := strings.Join(words[i:min(i+chunkWords, len(words))], " ")
		if i > 0 {
			piece = " " + piece
		}
		pieces = append(pieces, piece)
	}
	return pieces
}

// streamPieces walks content the way streamChat does.
func streamPieces(content string) []string {
	var pieces []string
	for i, lead := 0, false; ; lead = true {
		piece, next := streamPiece(content, i, lead)
		if piece == "" {
			return pieces
		}
		pieces = append(pieces, piece)
		i = next
	}
}

// FuzzStreamChatPieces holds streamChat's pieces to the strings.Fields and
// strings.Join body they replace, byte for byte: single spaces (cut in
// place), runs of spaces and tabs, Unicode spaces, invalid UTF-8, leading
// and trailing space, and counts of words on both sides of a piece's 16.
func FuzzStreamChatPieces(f *testing.F) {
	words := func(n int, sep string) string {
		w := make([]string, n)
		for i := range w {
			w[i] = "w" + strings.Repeat("x", i%5)
		}
		return strings.Join(w, sep)
	}
	for _, seed := range []string{
		"", " ", "\t\n\v\f\r ", "one", "two words", " lead", "trail ",
		words(15, " "), words(16, " "), words(17, " "), words(32, " "), words(40, " "),
		words(17, "  "), words(33, "\t"), " " + words(20, " ") + " ",
		words(16, " ") + "  " + words(16, " "), words(16, " ") + "\n" + words(3, " "),
		"x\u0085y z　w v u", "bad \xff utf8 \xc3", "\xe3\x80", "café naïve résumé",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, content string) {
		got, want := streamPieces(content), fieldsPieces(content)
		if !slices.Equal(got, want) {
			t.Fatalf("pieces of %q = %q, want %q", content, got, want)
		}
	})
}
