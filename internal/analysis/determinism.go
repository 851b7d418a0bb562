package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism guards the reproducibility invariant: regenerating the
// dataset and figures must be byte-identical run to run (the obs-on/off
// equivalence test pins this for one configuration; the analyzer prevents
// new nondeterminism sources from entering the results path at all). In
// the generator, experiment, and figure-output packages it flags:
//
//   - time.Now / time.Since — wall-clock reads (simulated time comes from
//     the campus calendar, never the host clock);
//   - package-level math/rand functions — process-seeded randomness (all
//     randomness must flow from an explicitly seeded *rand.Rand);
//   - ranging over a map where the loop body appends to an outer slice
//     that is never sorted afterwards, or calls a write/print/encode sink —
//     map iteration order is randomized per process, so either pattern
//     makes output ordering nondeterministic;
//   - the same two patterns inside a (*sync.Map).Range callback —
//     sync.Map makes the same no-order guarantee plain maps do, so a
//     Range feeding an unsorted slice into output would leak iteration
//     order into the results.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "results-path packages must not read the wall clock, use process-seeded " +
		"randomness, or let map iteration order reach output",
	Run: runDeterminism,
}

// determinismTargets are the packages whose code feeds the figures/CSVs
// (suffix-matched). cmd/* are deliberately excluded: progress reporting
// and bench reports measure real wall-clock time by design.
var determinismTargets = []string{
	"internal/trace",
	"internal/experiments",
	"internal/viz",
	"internal/stats",
	"internal/dnssim",
	"internal/dhcp",
	"internal/universe",
	"internal/campus",
	"internal/appsig",
	"internal/devclass",
}

// seededConstructors are the package-level math/rand functions that
// construct explicitly seeded generators rather than using the global one.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// sinkPrefixes mark calls that emit ordered output.
var sinkPrefixes = []string{"Write", "Print", "Fprint", "Encode", "Render"}

func runDeterminism(pass *Pass) error {
	if !pathMatches(pass.Path(), determinismTargets) {
		return nil
	}
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncDeterminism(pass, fd.Body)
		}
	}
	return nil
}

func checkFuncDeterminism(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkNondetCall(pass, n)
			if lit := syncMapRangeCallback(pass, n); lit != nil {
				checkUnorderedIter(pass, body, n, lit.Body, "sync.Map.Range callback")
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					checkUnorderedIter(pass, body, n, n.Body, "range over a map")
				}
			}
		}
		return true
	})
}

// syncMapRangeCallback returns the function literal passed to a
// (*sync.Map).Range call, or nil when the call is anything else.
func syncMapRangeCallback(pass *Pass, call *ast.CallExpr) *ast.FuncLit {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Range" || len(call.Args) != 1 {
		return nil
	}
	fn, _ := pass.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	lit, _ := ast.Unparen(call.Args[0]).(*ast.FuncLit)
	return lit
}

// checkNondetCall flags wall-clock reads and global math/rand use.
func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	fn := calledFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock in a results-path package; "+
				"derive timestamps from the campus calendar so regeneration stays byte-identical", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(), "global %s.%s is process-seeded; draw from an explicitly "+
				"seeded *rand.Rand so traces regenerate identically", fn.Pkg().Name(), fn.Name())
		}
	}
}

// calledFunc resolves the *types.Func a call invokes, or nil.
func calledFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.ObjectOf(id).(*types.Func)
	return fn
}

// checkUnorderedIter flags an unordered iteration (a range over a map, or
// a sync.Map.Range callback) whose body makes iteration order observable:
// a direct output sink, or an append to an outer slice that is never
// sorted later in the same function. span is the whole iteration
// construct (the RangeStmt or the Range call); iterBody is the per-entry
// body inspected for escapes.
func checkUnorderedIter(pass *Pass, funcBody *ast.BlockStmt, span ast.Node, iterBody ast.Node, what string) {
	ast.Inspect(iterBody, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name := sinkName(n); name != "" {
				pass.Reportf(span.Pos(), "map iteration order reaches output: %s is called inside "+
					"this %s; iterate sorted keys instead", name, what)
				return false
			}
		case *ast.AssignStmt:
			if obj := appendTarget(pass, n); obj != nil && declaredOutside(obj, span) &&
				!sortedAfter(pass, funcBody, span, obj) {
				pass.Reportf(span.Pos(), "appending to %q inside this %s leaves it in "+
					"random order; sort it before use (or iterate sorted keys)", obj.Name(), what)
				return false
			}
		}
		return true
	})
}

// sinkName returns the callee name if the call writes ordered output.
func sinkName(call *ast.CallExpr) string {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return ""
	}
	for _, prefix := range sinkPrefixes {
		if strings.HasPrefix(name, prefix) {
			return name
		}
	}
	return ""
}

// appendTarget returns the object of x in `x = append(x, ...)`, or nil.
func appendTarget(pass *Pass, assign *ast.AssignStmt) types.Object {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
		return nil
	} else if b, ok := pass.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.ObjectOf(lhs)
}

func declaredOutside(obj types.Object, span ast.Node) bool {
	return obj.Pos() < span.Pos() || obj.Pos() > span.End()
}

// sortedAfter reports whether obj is passed to a sort.* / slices.Sort*
// call after the iteration construct, which restores a deterministic
// order.
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, span ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < span.End() {
			return true
		}
		fn := calledFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		pkg := fn.Pkg().Path()
		switch {
		case (pkg == "sort" || pkg == "slices") &&
			(strings.HasPrefix(fn.Name(), "Sort") || isSortHelper(fn.Name())):
			// stdlib sort
		case strings.Contains(strings.ToLower(fn.Name()), "sort"):
			// local helper wrapping a sort (e.g. sortOUIs)
		default:
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(pass, arg, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isSortHelper(name string) bool {
	switch name {
	case "Sort", "Stable", "Strings", "Ints", "Float64s", "Slice", "SliceStable":
		return true
	}
	return false
}

func mentionsObject(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}
