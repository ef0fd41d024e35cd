package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive grammar:
//
//	//firstlint:allow <analyzer> <reason...>
//	    Suppress <analyzer> findings on the directive's own line (trailing
//	    comment) or, for a comment standing alone, on the next code line.
//	    The reason is mandatory; reason-less allows are themselves findings.
//
//	//first:hotpath [note...]
//	    Placed in a function's doc comment: declares the function a 0-alloc
//	    hot path. The hotpath analyzer then requires an AllocsPerRun pin to
//	    reach the function, and the driver's escape phase requires the
//	    compiler to show no heap escapes inside its body.
//
// Anything else spelled //firstlint:... or //first:... is malformed and
// reported as a finding so typos cannot silently disable a gate.

// allowRec is one parsed //firstlint:allow, tracked for use so stale
// suppressions surface instead of rotting.
type allowRec struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

// HotpathAnn is one //first:hotpath annotation bound to a function.
type HotpathAnn struct {
	FuncName  string
	Note      string // free text after the directive word
	File      string
	Pos       token.Position
	BodyStart int // first line of the body
	BodyEnd   int // last line of the body
}

// Directives is the per-package directive table.
type Directives struct {
	// allows maps file -> line -> analyzer -> record. A standalone comment
	// registers on its computed target line; a trailing comment on its own.
	allows    map[string]map[int]map[string]*allowRec
	hotpaths  []HotpathAnn
	malformed []Diagnostic
}

// allow reports whether an allow directive for analyzer covers file:line,
// marking it used.
func (d *Directives) allow(analyzer, file string, line int) bool {
	rec := d.allows[file][line][analyzer]
	if rec == nil {
		return false
	}
	rec.used = true
	return true
}

// Hotpaths returns the package's bound //first:hotpath annotations.
func (d *Directives) Hotpaths() []HotpathAnn { return d.hotpaths }

// DirectiveDiags reports malformed directives and allows that suppressed
// nothing. Call it only after every consumer — analyzers and the driver's
// escape phase — has had the chance to mark allows used.
func (d *Directives) DirectiveDiags() []Diagnostic {
	diags := append([]Diagnostic(nil), d.malformed...)
	for _, lines := range d.allows {
		for _, byAnalyzer := range lines {
			for _, rec := range byAnalyzer {
				if !rec.used {
					diags = append(diags, Diagnostic{
						Pos:      rec.pos,
						Analyzer: "directive",
						Message:  fmt.Sprintf("unused //firstlint:allow %s (%s): nothing to suppress here — remove it", rec.analyzer, rec.reason),
					})
				}
			}
		}
	}
	sortDiags(diags)
	return diags
}

func scanDirectives(pkg *Package) *Directives {
	d := &Directives{allows: make(map[string]map[int]map[string]*allowRec)}
	known := AnalyzerNames()

	// Bind //first:hotpath annotations: they are only meaningful inside a
	// function declaration's doc comment.
	hotpathDocs := make(map[*ast.Comment]*ast.FuncDecl)
	allFiles := append(append([]*ast.File(nil), pkg.Files...), pkg.TestFiles...)
	for _, f := range allFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, "//first:") {
					hotpathDocs[c] = fd
				}
			}
		}
	}

	for _, f := range allFiles {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				switch {
				case strings.HasPrefix(text, "//firstlint:"):
					d.scanAllow(pkg, c, known)
				case strings.HasPrefix(text, "//first:"):
					rest := strings.TrimPrefix(text, "//first:")
					word := rest
					if i := strings.IndexAny(rest, " \t"); i >= 0 {
						word = rest[:i]
					}
					pos := pkg.Fset.Position(c.Pos())
					if word != "hotpath" {
						d.malformed = append(d.malformed, Diagnostic{
							Pos: pos, Analyzer: "directive",
							Message: fmt.Sprintf("unknown directive //first:%s (only //first:hotpath exists)", word),
						})
						continue
					}
					fd, ok := hotpathDocs[c]
					if !ok {
						d.malformed = append(d.malformed, Diagnostic{
							Pos: pos, Analyzer: "directive",
							Message: "//first:hotpath must appear in a function declaration's doc comment",
						})
						continue
					}
					body := fd.Body
					if body == nil {
						d.malformed = append(d.malformed, Diagnostic{
							Pos: pos, Analyzer: "directive",
							Message: "//first:hotpath on a bodyless declaration",
						})
						continue
					}
					d.hotpaths = append(d.hotpaths, HotpathAnn{
						FuncName:  fd.Name.Name,
						Note:      strings.TrimSpace(strings.TrimPrefix(rest, word)),
						File:      pos.Filename,
						Pos:       pos,
						BodyStart: pkg.Fset.Position(body.Lbrace).Line,
						BodyEnd:   pkg.Fset.Position(body.Rbrace).Line,
					})
				}
			}
		}
	}
	return d
}

func (d *Directives) scanAllow(pkg *Package, c *ast.Comment, known map[string]bool) {
	pos := pkg.Fset.Position(c.Pos())
	rest := strings.TrimPrefix(c.Text, "//firstlint:")
	fields := strings.Fields(rest)
	if len(fields) == 0 || fields[0] != "allow" {
		verb := "(empty)"
		if len(fields) > 0 {
			verb = fields[0]
		}
		d.malformed = append(d.malformed, Diagnostic{
			Pos: pos, Analyzer: "directive",
			Message: fmt.Sprintf("unknown firstlint directive %q (only //firstlint:allow <analyzer> <reason> exists)", verb),
		})
		return
	}
	if len(fields) < 2 || !known[fields[1]] {
		name := "(missing)"
		if len(fields) >= 2 {
			name = fields[1]
		}
		d.malformed = append(d.malformed, Diagnostic{
			Pos: pos, Analyzer: "directive",
			Message: fmt.Sprintf("//firstlint:allow names unknown analyzer %s", name),
		})
		return
	}
	if len(fields) < 3 {
		d.malformed = append(d.malformed, Diagnostic{
			Pos: pos, Analyzer: "directive",
			Message: fmt.Sprintf("//firstlint:allow %s needs a reason: every surviving suppression documents why", fields[1]),
		})
		return
	}
	target := d.targetLine(pkg, pos)
	byLine := d.allows[pos.Filename]
	if byLine == nil {
		byLine = make(map[int]map[string]*allowRec)
		d.allows[pos.Filename] = byLine
	}
	byAnalyzer := byLine[target]
	if byAnalyzer == nil {
		byAnalyzer = make(map[string]*allowRec)
		byLine[target] = byAnalyzer
	}
	byAnalyzer[fields[1]] = &allowRec{
		pos:      pos,
		analyzer: fields[1],
		reason:   strings.Join(fields[2:], " "),
	}
}

// targetLine computes which code line an allow directive covers: its own
// line for a trailing comment, else the next line that is neither blank nor
// comment-only (so allow directives stack above a statement).
func (d *Directives) targetLine(pkg *Package, pos token.Position) int {
	lines := srcLines(pkg, pos.Filename)
	if pos.Line-1 < len(lines) {
		before := lines[pos.Line-1]
		if pos.Column-1 <= len(before) && strings.TrimSpace(string(before[:pos.Column-1])) != "" {
			return pos.Line // trailing comment: covers its own line
		}
	}
	for l := pos.Line + 1; l <= len(lines); l++ {
		t := strings.TrimSpace(string(lines[l-1]))
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		return l
	}
	return pos.Line + 1
}

func srcLines(pkg *Package, filename string) [][]byte {
	return bytes.Split(pkg.Src[filename], []byte("\n"))
}
