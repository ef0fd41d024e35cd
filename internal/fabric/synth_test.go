package fabric

import (
	"math"
	"runtime"
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
// separator), invalid UTF-8, and prompts with no word at all; then prompts
// whose opening words are the text itself, or almost: single-spaced words,
// a trailing space, a tab or an NBSP between words.
var synthPrompts = []string{
	"", " ", "\t\n\v\f\r ", "hello", "what is  the\tcapital of France?",
	"  leading and trailing  ", "x\u0085y z　w v", "  ",
	"café naïve résumé", "bad \xff utf8 \xc3", "\xe3\x80", "a",
	"longwordsarelongerthaneightbytes and short ones",
	"one two three", "one two three ", "one two\tthree", "one two\u00a0three",
	"the quick brown fox jumps over the lazy dog and keeps on running",
}

// openingSeeds are single-spaced prompts given n-1, n and n+1 words, a
// trailing space, and a tab or an NBSP before the n-th word: the edges of
// the path that returns the prompt's opening.
var openingSeeds = []struct {
	prompt string
	n      int
}{
	{"one two", 3}, {"one two three", 3}, {"one two three four", 3},
	{"one two three ", 3}, {"one two three ", 4},
	{"one two\tthree", 3}, {"one two\u00a0three", 3}, {"one two\tthree", 2}, {"one\u00a0two", 1},
}

// roundPrompts are prompts shorter than the text, given n = w+1, 2w and
// 2w+1 for their w words: single-spaced printable ASCII, which buildText
// writes as whole rounds of the prompt, then the same with a trailing
// space, a double space, a tab or a DEL in it, and a one-word prompt.
var roundPrompts = []string{
	"one two three", "one two three ", "one  two three", "one\ttwo three", "one two\x7fthree", "\x7f one two",
	"solo", "solo ", "\x7f",
}

func FuzzSynthesizeText(f *testing.F) {
	for i, p := range synthPrompts {
		f.Add(p, i*7-3)
	}
	for _, s := range openingSeeds {
		f.Add(s.prompt, s.n)
	}
	for _, p := range roundPrompts {
		w := len(strings.Fields(p))
		for _, n := range []int{w + 1, 2 * w, 2*w + 1} {
			f.Add(p, n)
		}
	}
	f.Fuzz(func(t *testing.T, prompt string, n int) {
		n %= 4096 // a long answer, and n <= 0
		if got, want := synthesizeText(prompt, n), fieldsSynthesizeText(prompt, n); got != want {
			t.Fatalf("synthesizeText(%q, %d) = %q, want %q", prompt, n, got, want)
		}
	})
}

// heapBytes returns the heap bytes one call of f allocates, averaged over
// 50 runs on one processor as testing.AllocsPerRun measures. Another
// goroutine's allocation can only add to a reading, so it keeps the least
// of three.
func heapBytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 50 {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/50)
	}
	return least
}

var sink []byte

// synthesizeText allocates nothing when its text is the prompt's opening,
// and otherwise one allocation of exactly the text's length, whatever the
// prompt's words average. Below 16 bytes the runtime packs allocations
// together, so the size is checked from there up.
func TestSynthesizeTextExactOrNoAllocation(t *testing.T) {
	rows := 0
	for _, p := range synthPrompts {
		for _, n := range []int{1, 2, 3, 4, 16, 128, 1000} {
			want := fieldsSynthesizeText(p, n)
			var got string
			allocs := testing.AllocsPerRun(20, func() { got = synthesizeText(p, n) })
			if got != want {
				t.Errorf("synthesizeText(%q, %d) = %q, want %q", p, n, got, want)
			}
			if strings.HasPrefix(p, want) {
				rows++
				if allocs != 0 {
					t.Errorf("synthesizeText(%q, %d): %.1f allocs for the prompt's opening, want 0", p, n, allocs)
				}
				continue
			}
			if allocs != 1 {
				t.Errorf("synthesizeText(%q, %d): %.1f allocs, want 1", p, n, allocs)
			}
			if len(want) >= 16 {
				exact := heapBytes(func() { sink = make([]byte, len(want)) })
				if b := heapBytes(func() { got = synthesizeText(p, n) }); b != exact {
					t.Errorf("synthesizeText(%q, %d): %d heap bytes, want %d for its %d", p, n, b, exact, len(want))
				}
			}
		}
	}
	if rows < 10 {
		t.Errorf("only %d rows return the prompt's opening", rows)
	}
	if got := synthesizeText("two words", 0); got != "" {
		t.Errorf("n = 0: %q", got)
	}
}
