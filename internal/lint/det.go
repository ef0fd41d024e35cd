package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// detPackages are the module-relative package paths whose byte-identical
// replay the differential suites pin. Everything in them must be a pure
// function of the seed and the event schedule.
var detPackages = map[string]bool{
	"internal/sim":        true,
	"internal/desmodel":   true,
	"internal/federation": true,
	"internal/scheduler":  true,
	"internal/cluster":    true,
	"internal/serving":    true,
}

// detExperimentFile is the one internal/experiments file in scope: report
// assembly, where map-iteration order would leak straight into the rendered
// bytes the determinism suites pin.
const detExperimentFile = "report.go"

// Det flags nondeterminism sources in deterministic packages: wall-clock
// reads (time.Now/Since), global math/rand draws, goroutine launches, and
// map iterations that are not visibly sorted before their results can
// escape into reports or event schedules.
var Det = &Analyzer{
	Name: "det",
	Doc:  "forbid wall-clock reads, global rand, goroutines, and unsorted map ranges in deterministic packages",
	Run:  runDet,
}

func detInScope(path, filename string) bool {
	rel := relPath(path)
	if detPackages[rel] {
		return true
	}
	if rel == "internal/experiments" {
		return filepath.Base(filename) == detExperimentFile
	}
	return false
}

func runDet(pass *Pass) {
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		if !detInScope(pass.Path, filename) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			detFunc(pass, fd)
		}
	}
}

func detFunc(pass *Pass, fd *ast.FuncDecl) {
	// Collect sort calls first: a map range is acceptable when the same
	// function visibly sorts after the iteration begins (keys gathered
	// then sorted, or the filled slice sorted before use).
	var sortPos []int
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := funcObj(pass.Info, call); fn != nil && fn.Pkg() != nil {
			if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
				sortPos = append(sortPos, pass.Fset.Position(call.Pos()).Line)
			}
		}
		return true
	})
	sortedAfter := func(line int) bool {
		for _, l := range sortPos {
			if l >= line {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine launch in deterministic package %s: the DES drives all concurrency through the kernel", relPath(pass.Path))
		case *ast.RangeStmt:
			tv, ok := pass.Info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			line := pass.Fset.Position(n.Pos()).Line
			if !sortedAfter(line) {
				pass.Reportf(n.Pos(), "map iteration order is random: sort before results can escape into reports or event schedules, or annotate //firstlint:allow det <reason>")
			}
		case *ast.CallExpr:
			fn := funcObj(pass.Info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if pkgLevelFunc(fn, "time") && (fn.Name() == "Now" || fn.Name() == "Since") {
					pass.Reportf(n.Pos(), "wall-clock time.%s in deterministic package %s: derive time from the kernel or internal/clock", fn.Name(), relPath(pass.Path))
				}
			case "math/rand", "math/rand/v2":
				if pkgLevelFunc(fn, fn.Pkg().Path()) && !seededRandCtor[fn.Name()] {
					pass.Reportf(n.Pos(), "global %s.%s draws from the shared process-wide source: thread a seeded *sim.RNG instead", fn.Pkg().Name(), fn.Name())
				}
			}
		}
		return true
	})
}

// seededRandCtor lists the math/rand package-level functions that build
// explicitly seeded generators (fine for determinism) rather than drawing
// from the global source.
var seededRandCtor = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}
