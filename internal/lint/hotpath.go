package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// HotPath cross-checks //first:hotpath annotations against the package's
// 0-alloc AllocsPerRun pins so the two cannot drift apart:
//
//   - reverse: every function a 0-alloc pin closure calls directly must
//     carry //first:hotpath (removing the annotation from a pinned
//     function is a finding);
//   - forward: every annotated function must be reachable, through the
//     package's static call graph, from some 0-alloc pin closure
//     (annotating a function nothing pins is a finding);
//   - by name: an annotation whose note says "pinned by TestXxx" must name
//     functions the package's test files declare (a renamed or deleted
//     test leaves the note pointing nowhere).
//
// The second half of the contract — the compiler's escape analysis showing
// no heap escapes inside annotated bodies — runs in the driver (see
// escape.go), because it needs `go build -gcflags=-m` output.
//
// Pins are detected syntactically in the package's _test.go files: a
// testing.AllocsPerRun call whose result is compared against literal 0
// (`!= 0` or `> 0`). Pins with a nonzero budget (e.g. `> 1`) bind nothing.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "cross-check //first:hotpath annotations against AllocsPerRun pins",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	// Index the package's compiled (non-test) function declarations by
	// bare name. Methods share the namespace: a pinned name requires the
	// annotation on every same-named declaration, which keeps the check
	// honest without type information for test files.
	decls := make(map[string][]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[fd.Name.Name] = append(decls[fd.Name.Name], fd)
			}
		}
	}
	annotated := make(map[string]bool)
	for _, ann := range pass.Dirs.Hotpaths() {
		annotated[ann.FuncName] = true
	}

	// Collect the direct callees of every 0-alloc pin closure.
	pinned := make(map[string]token.Pos)
	for _, tf := range pass.TestFiles {
		for _, d := range tf.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanPins(pass, fd, func(callee string, pos token.Pos) {
				if _, exists := pinned[callee]; !exists {
					pinned[callee] = pos
				}
			})
		}
	}

	// Reverse check: pinned functions must be annotated.
	for name := range pinned {
		for _, fd := range decls[name] {
			if !annotated[name] {
				pass.Reportf(fd.Pos(), "%s is pinned 0-alloc by an AllocsPerRun test but lacks //first:hotpath: annotate it so escape analysis guards the pin", name)
			}
		}
	}

	// Forward check: annotated functions must be reachable from a pin.
	reach := reachable(pass, decls, pinned)
	for _, ann := range pass.Dirs.Hotpaths() {
		if len(decls[ann.FuncName]) == 0 {
			// Annotation bound to a test-file function: pins live in
			// tests, hot paths in compiled code.
			pass.Reportf(posOf(pass, ann), "//first:hotpath on %s, which is not a compiled function of this package", ann.FuncName)
			continue
		}
		if !reach[ann.FuncName] {
			pass.Reportf(posOf(pass, ann), "%s is annotated //first:hotpath but no 0-alloc AllocsPerRun pin reaches it: add the pin or drop the annotation", ann.FuncName)
		}
	}

	// Name check: "pinned by TestXxx" must name a declared test function.
	tests := make(map[string]bool)
	for _, tf := range pass.TestFiles {
		for _, d := range tf.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				tests[fd.Name.Name] = true
			}
		}
	}
	for _, ann := range pass.Dirs.Hotpaths() {
		i := strings.Index(ann.Note, "pinned by Test")
		if i < 0 {
			continue // no claim, or a suite named in prose ("pinned by the stripe suite")
		}
		for _, name := range testNameRe.FindAllString(ann.Note[i:], -1) {
			if !tests[name] {
				pass.Reportf(posOf(pass, ann), "//first:hotpath on %s says it is pinned by %s, but the package's test files declare no func %s: name the test that pins it", ann.FuncName, name, name)
			}
		}
	}
}

// testNameRe picks out every test a "pinned by TestA (a_test.go) and TestB"
// note names.
var testNameRe = regexp.MustCompile(`\bTest\w+`)

// posOf recovers a token.Pos inside the annotated function so Reportf can
// consult allow directives; annotations store resolved positions.
func posOf(pass *Pass, ann HotpathAnn) token.Pos {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == ann.FuncName {
				if pass.Fset.Position(fd.Pos()).Filename == ann.File {
					return fd.Pos()
				}
			}
		}
	}
	for _, f := range pass.TestFiles {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == ann.FuncName {
				return fd.Pos()
			}
		}
	}
	return token.NoPos
}

// reachable closes the pinned-callee set over the package's static call
// graph (bare-name edges between compiled functions), so helpers like the
// kernel's heapPush/heapPop — exercised through Schedule/Run pins — count
// as covered. A method value assigned in a body (`rec.runFn = rec.run`, a
// goroutine body bound once so that starting it allocates nothing) is an
// edge too: the value is called later, through the field it was stored in.
func reachable(pass *Pass, decls map[string][]*ast.FuncDecl, pinned map[string]token.Pos) map[string]bool {
	edges := make(map[string][]string)
	for name, fds := range decls {
		seen := make(map[string]bool)
		edge := func(callee string) {
			if callee != "" && !seen[callee] && len(decls[callee]) > 0 {
				seen[callee] = true
				edges[name] = append(edges[name], callee)
			}
		}
		for _, fd := range fds {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					edge(calleeName(n))
				case *ast.AssignStmt:
					for _, rhs := range n.Rhs {
						if sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr); ok {
							edge(sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}
	reach := make(map[string]bool)
	var queue []string
	for name := range pinned {
		if len(decls[name]) > 0 && !reach[name] {
			reach[name] = true
			queue = append(queue, name)
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, next := range edges[name] {
			if !reach[next] {
				reach[next] = true
				queue = append(queue, next)
			}
		}
	}
	return reach
}

// scanPins finds testing.AllocsPerRun calls inside fd whose result is
// compared against literal 0, resolves the measured closure, and emits the
// closure's direct callee names.
func scanPins(pass *Pass, fd *ast.FuncDecl, emit func(callee string, pos token.Pos)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 || !isAllocsPerRun(call) {
			return true
		}
		if !zeroPinned(fd, call) {
			return true
		}
		for _, callee := range closureCallees(fd, call.Args[1]) {
			emit(callee, call.Pos())
		}
		return true
	})
}

func isAllocsPerRun(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "AllocsPerRun"
	case *ast.Ident:
		return fun.Name == "AllocsPerRun"
	}
	return false
}

// zeroPinned reports whether the AllocsPerRun call's result is compared
// against literal 0 with != or > — the shape every 0-alloc pin in this
// repo uses. The two accepted bindings keep same-named results in one test
// function from cross-talking:
//
//	if x := testing.AllocsPerRun(...); x != 0 {   // checked in that if's condition only
//	x := testing.AllocsPerRun(...); ...; if x != 0 // checked across the function
func zeroPinned(fd *ast.FuncDecl, target *ast.CallExpr) bool {
	// if-scoped binding: compare only inside that statement's condition.
	found, bound := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		asg, ok := ifs.Init.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 || asg.Rhs[0] != target {
			return true
		}
		bound = true
		if id, ok := asg.Lhs[0].(*ast.Ident); ok {
			found = comparesToZero(ifs.Cond, id.Name)
		}
		return true
	})
	if bound {
		return found
	}
	// standalone binding: find the assignment, then any comparison in the
	// function.
	name := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok || len(asg.Rhs) != 1 || len(asg.Lhs) != 1 || asg.Rhs[0] != target {
			return true
		}
		if id, ok := asg.Lhs[0].(*ast.Ident); ok {
			name = id.Name
		}
		return true
	})
	if name == "" {
		return false
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if comparesToZero(n, name) {
			found = true
		}
		return true
	})
	return found
}

func comparesToZero(n ast.Node, name string) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || (bin.Op != token.NEQ && bin.Op != token.GTR) {
			return true
		}
		id, ok := ast.Unparen(bin.X).(*ast.Ident)
		if !ok || id.Name != name {
			return true
		}
		if lit, ok := ast.Unparen(bin.Y).(*ast.BasicLit); ok && lit.Value == "0" {
			found = true
		}
		return true
	})
	return found
}

// closureCallees lists the names directly called by the measured argument:
// a func literal's call sites, a method value like c.Inc, or a local
// variable previously assigned a func literal.
func closureCallees(fd *ast.FuncDecl, arg ast.Expr) []string {
	switch arg := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		return bodyCallees(arg.Body)
	case *ast.SelectorExpr:
		return []string{arg.Sel.Name}
	case *ast.Ident:
		var body *ast.BlockStmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			asg, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range asg.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name != arg.Name || i >= len(asg.Rhs) {
					continue
				}
				if fl, ok := asg.Rhs[i].(*ast.FuncLit); ok {
					body = fl.Body
				}
			}
			return true
		})
		if body != nil {
			return bodyCallees(body)
		}
	}
	return nil
}

func bodyCallees(body *ast.BlockStmt) []string {
	var out []string
	seen := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name := calleeName(call); name != "" && !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
		return true
	})
	return out
}
