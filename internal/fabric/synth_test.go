package fabric

import (
	"strings"
	"testing"
)

// fieldsSynthesizeText is synthesizeText as it was before it sized its text
// from the prompt's words: strings.Fields, then a builder grown to 8 bytes a
// word. It is the oracle the current one must match byte for byte.
func fieldsSynthesizeText(prompt string, n int) string {
	if n <= 0 {
		return ""
	}
	seedWords := strings.Fields(prompt)
	if len(seedWords) == 0 {
		seedWords = []string{"analysis"}
	}
	var b strings.Builder
	b.Grow(n * 8)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(seedWords[i%len(seedWords)])
	}
	return b.String()
}

// synthPrompts are the shapes strings.Fields treats specially: runs of
// spaces and tabs, Unicode spaces (NEL, NBSP, ideographic space, line
// separator), invalid UTF-8, and prompts with no word at all.
var synthPrompts = []string{
	"", " ", "\t\n\v\f\r ", "hello", "what is  the\tcapital of France?",
	"  leading and trailing  ", "x\u0085y z　w v", "  ",
	"café naïve résumé", "bad \xff utf8 \xc3", "\xe3\x80", "a",
	"longwordsarelongerthaneightbytes and short ones",
}

func FuzzSynthesizeText(f *testing.F) {
	for i, p := range synthPrompts {
		f.Add(p, i*7-3)
	}
	f.Fuzz(func(t *testing.T, prompt string, n int) {
		n %= 4096 // a long answer, and n <= 0
		if got, want := synthesizeText(prompt, n), fieldsSynthesizeText(prompt, n); got != want {
			t.Fatalf("synthesizeText(%q, %d) = %q, want %q", prompt, n, got, want)
		}
	})
}

// synthesizeText makes its text in one allocation of exactly its length,
// whatever the prompt's words average.
func TestSynthesizeTextOneExactAllocation(t *testing.T) {
	for _, p := range synthPrompts {
		for _, n := range []int{1, 2, 3, 16, 128, 1000} {
			want := fieldsSynthesizeText(p, n)
			var got string
			if allocs := testing.AllocsPerRun(20, func() { got = synthesizeText(p, n) }); allocs != 1 {
				t.Errorf("synthesizeText(%q, %d): %.1f allocs, want 1", p, n, allocs)
			}
			if got != want {
				t.Errorf("synthesizeText(%q, %d) = %q, want %q", p, n, got, want)
			}
		}
	}
	if got := synthesizeText("two words", 0); got != "" {
		t.Errorf("n = 0: %q", got)
	}
}
