package first

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef is a Markdown file's name, with or without a path, as a comment
// names it.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)

// Every Markdown file a Go file of the module names exists, beside the Go
// file or at the repository root, so that a reader who follows a pointer
// reaches something. Directories whose names start with '.' (build output
// among them), testdata fixtures and nested modules are not walked.
func TestNoCommentNamesAMissingFile(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for line := 1; sc.Scan(); line++ {
			for _, name := range mdRef.FindAllString(sc.Text(), -1) {
				if !exists(filepath.Join(filepath.Dir(path), name)) && !exists(name) {
					t.Errorf("%s:%d names %s, which exists neither beside it nor at the repository root", path, line, name)
				}
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
