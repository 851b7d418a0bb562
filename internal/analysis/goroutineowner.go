package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineOwner guards against goroutine leaks in the packages that will
// back the long-running service mode: every `go` statement there must have
// a provable shutdown edge, so a daemon embedding the pipeline can drain
// and exit instead of accumulating orphans. Accepted evidence, anywhere in
// the launched function's body (the function literal, or the same-package
// function/method the statement calls):
//
//   - a channel receive (`<-ch`, including select cases) or a range over a
//     channel — a close-signaled exit path;
//   - a (*sync.WaitGroup).Done call — an owner is counting this goroutine
//     down;
//   - a close(ch) call (typically deferred) — the goroutine signals its own
//     completion to an owner that waits on the channel.
//
// A goroutine whose body the analyzer cannot see (an external function
// value) carries no proof and is a finding; if its lifecycle is genuinely
// owned elsewhere, say how with an ignore directive:
//
//	//lintlock:ignore goroutineowner Serve returns when Close closes ln
var GoroutineOwner = &Analyzer{
	Name: "goroutineowner",
	Doc: "go statements in long-lived packages must have a provable shutdown " +
		"edge (WaitGroup.Done, channel receive/range, or close signal)",
	Run: runGoroutineOwner,
}

// goroutineOwnerTargets are the long-lived packages (suffix-matched): the
// concurrent ingest core, the observability layer (its progress reporter
// and debug server outlive single calls), the log replay source lockdownd
// tails, and the generator (its day producer must unwind when delivery
// does).
var goroutineOwnerTargets = []string{
	"internal/core",
	"internal/obs",
	"internal/logsink",
	"internal/trace",
}

func runGoroutineOwner(pass *Pass) error {
	if !pathMatches(pass.Path(), goroutineOwnerTargets) {
		return nil
	}
	decls := packageFuncDecls(pass)
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			goStmt, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body, where := goFuncBody(pass, goStmt, decls)
			if body == nil {
				pass.Reportf(goStmt.Pos(), "go statement launches %s, whose body this analyzer "+
					"cannot inspect; prove the shutdown edge locally (wrap it in a literal that "+
					"signals completion) or justify with an ignore directive", where)
				return true
			}
			if !hasShutdownEdge(pass, body) {
				pass.Reportf(goStmt.Pos(), "goroutine launched here has no provable shutdown edge "+
					"(no WaitGroup.Done, channel receive/range, or close signal); a long-running "+
					"service embedding this package would leak it")
			}
			return true
		})
	}
	return nil
}

// packageFuncDecls indexes this package's function declarations by their
// *types.Func object, so `go p.worker()` can be resolved to a body.
func packageFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.ObjectOf(fd.Name); obj != nil {
				decls[obj] = fd
			}
		}
	}
	return decls
}

// goFuncBody resolves the body of the function a go statement launches:
// the literal itself, or a same-package declaration. Returns a description
// of the callee when the body is unavailable.
func goFuncBody(pass *Pass, goStmt *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) (*ast.BlockStmt, string) {
	switch fun := ast.Unparen(goStmt.Call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body, ""
	case *ast.Ident:
		if fd, ok := decls[pass.ObjectOf(fun)]; ok {
			return fd.Body, ""
		}
		return nil, fun.Name
	case *ast.SelectorExpr:
		if fd, ok := decls[pass.ObjectOf(fun.Sel)]; ok {
			return fd.Body, ""
		}
		return nil, fun.Sel.Name
	}
	return nil, "a computed function value"
}

// hasShutdownEdge scans body for any of the accepted evidence forms.
func hasShutdownEdge(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW { // <-ch anywhere, including select cases
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if isWaitGroupDone(pass, n) || isCloseCall(pass, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isWaitGroupDone reports whether call is (*sync.WaitGroup).Done.
func isWaitGroupDone(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	fn, _ := pass.ObjectOf(sel.Sel).(*types.Func)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync"
}

// isCloseCall reports whether call is the close builtin on a channel.
func isCloseCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "close"
}
