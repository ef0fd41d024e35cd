// Package lint implements firstlint, the repo-specific static-analysis
// suite that turns the invariants the differential and AllocsPerRun suites
// only sample into compile-adjacent gates:
//
//   - det: deterministic packages must not read the wall clock, use the
//     global math/rand, launch goroutines, or let map-iteration order
//     escape into reports or event schedules.
//   - clockonly: all waiting outside internal/clock must flow through the
//     scaled clock — time.Sleep/After/NewTimer and friends are forbidden.
//   - seedflow: chaos and workload seeds must derive from the shared
//     splitmix64 Mix; ad-hoc hashes and xor-folded seeds are the
//     PR 7 collision bug class, caught at analysis time.
//   - hotpath: //first:hotpath annotations and 0-alloc AllocsPerRun pins
//     are cross-checked both ways, a test an annotation names as its pin
//     must exist, and (driver-level) the compiler's escape analysis must
//     show no heap escapes inside annotated bodies.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, Reportf) so the analyzers can migrate to the real
// multichecker when the external dependency becomes available; it is built
// on the standard library alone (go/parser + go/types with the source
// importer) because this module currently vendors nothing.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's compiled files, parsed with comments and
	// type-checked; Info covers exactly these.
	Files []*ast.File
	// TestFiles are the package's _test.go files (in-package and external),
	// parsed but NOT type-checked — only syntactic checks may use them.
	TestFiles []*ast.File
	Pkg       *types.Package
	Info      *types.Info
	// Path is the import path used for scope decisions. Fixtures load with
	// synthetic paths so the production scope rules apply unchanged.
	Path string
	// Dirs holds the package's firstlint directives; Reportf consults it
	// to suppress allowed findings.
	Dirs *Directives

	sink *[]Diagnostic
}

// Reportf records a finding unless an //firstlint:allow directive for this
// analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if p.Dirs.allow(p.Analyzer.Name, position.Filename, position.Line) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the firstlint suite in the order the driver runs it.
var All = []*Analyzer{Det, ClockOnly, SeedFlow, HotPath}

// AnalyzerNames is the set of names //firstlint:allow accepts.
func AnalyzerNames() map[string]bool {
	m := make(map[string]bool, len(All))
	for _, a := range All {
		m[a.Name] = true
	}
	return m
}

// RunPackage runs the given analyzers over one loaded package and returns
// their findings. Directive health (malformed or unused directives) is
// reported separately by DirectiveDiags once every consumer of the
// package's directives — including the driver's escape phase — has run.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			TestFiles: pkg.TestFiles,
			Pkg:       pkg.Pkg,
			Info:      pkg.Info,
			Path:      pkg.Path,
			Dirs:      pkg.Dirs,
			sink:      &diags,
		}
		a.Run(pass)
	}
	sortDiags(diags)
	return diags
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ModulePath is the import-path prefix scope rules strip. Fixture packages
// load under synthetic paths carrying this prefix so the same rules fire.
const ModulePath = "github.com/argonne-first/first"

// relPath strips the module prefix from an import path; paths outside the
// module come back unchanged.
func relPath(path string) string {
	if path == ModulePath {
		return ""
	}
	const pfx = ModulePath + "/"
	if len(path) > len(pfx) && path[:len(pfx)] == pfx {
		return path[len(pfx):]
	}
	return path
}

// funcObj resolves a call expression's callee to its types.Func, or nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgLevelFunc reports whether fn is a package-level function (not a
// method) belonging to the package with import path pkgPath.
func pkgLevelFunc(fn *types.Func, pkgPath string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
