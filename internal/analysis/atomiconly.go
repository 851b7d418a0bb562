package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicOnly guards the memory-ordering contract of the module's atomic
// state — the obs counters and stage histograms that progress and debug
// goroutines snapshot during ingest, and the lockdownd server's published
// epoch pointer: a struct field that participates in an atomic protocol
// must be accessed atomically *everywhere*. One plain load of a counter
// (or one plain store to a snapshot publication pointer) compiles, passes
// single-threaded tests, and silently corrupts data only under real
// concurrency. Two field classes are covered, module-wide:
//
//   - function-style atomics: a field whose address is ever passed to a
//     sync/atomic function (atomic.LoadUint64(&s.f), atomic.AddInt64, ...)
//     is an atomic field; any other selector access to it — a plain read,
//     a plain write, or its address escaping to a non-atomic callee — is a
//     finding.
//   - typed atomics (atomic.Uint64, atomic.Pointer[T], atomic.Value, ...):
//     the method set already forces atomic access, but a direct assignment
//     to the field (`c.v = atomic.Int64{}` — a plain, tear-prone reset
//     that compiles fine) bypasses it and is a finding.
//
// Struct-literal initialization is exempt: construction happens before the
// value is published to other goroutines, which is exactly when plain
// writes are legal.
var AtomicOnly = &Analyzer{
	Name: "atomiconly",
	Doc: "a struct field accessed via sync/atomic anywhere must be accessed " +
		"atomically everywhere; typed atomic fields must never be plainly assigned",
	Run: runAtomicOnly,
}

func runAtomicOnly(pass *Pass) error {
	// Pass 1 over the whole package: collect the fields used with
	// function-style atomics, and remember which selector nodes are the
	// sanctioned atomic accesses themselves.
	atomicFields := make(map[types.Object]bool)
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSyncAtomicCall(pass, call) {
				return true
			}
			for _, arg := range call.Args {
				if sel := addressedField(pass, arg); sel != nil {
					atomicFields[pass.ObjectOf(sel.Sel)] = true
					sanctioned[sel] = true
				}
			}
			return true
		})
	}

	// Pass 2: every other access to those fields must be atomic, and
	// typed-atomic fields must not be plainly assigned.
	for _, file := range pass.Files() {
		checkAtomicAccesses(pass, file, atomicFields, sanctioned)
	}
	return nil
}

// isSyncAtomicCall reports whether call invokes a package-level function of
// sync/atomic (LoadUint64, StoreInt64, AddInt32, SwapPointer, ...).
func isSyncAtomicCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calledFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// addressedField returns the selector sel when arg is `&x.sel` and sel
// resolves to a struct field, else nil.
func addressedField(pass *Pass, arg ast.Expr) *ast.SelectorExpr {
	u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	sel, ok := ast.Unparen(u.X).(*ast.SelectorExpr)
	if !ok || !isFieldSelector(pass, sel) {
		return nil
	}
	return sel
}

// isFieldSelector reports whether sel selects a struct field (not a method
// or package member).
func isFieldSelector(pass *Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.Pkg.Info.Selections[sel]
	return ok && s.Kind() == types.FieldVal
}

// atomicTypedField reports whether sel selects a struct field whose type is
// declared in sync/atomic (atomic.Uint64, atomic.Pointer[T], atomic.Value).
func atomicTypedField(pass *Pass, sel *ast.SelectorExpr) bool {
	if !isFieldSelector(pass, sel) {
		return false
	}
	t := pass.TypeOf(sel)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// checkAtomicAccesses walks one file flagging mixed accesses.
func checkAtomicAccesses(pass *Pass, file *ast.File, atomicFields map[types.Object]bool, sanctioned map[*ast.SelectorExpr]bool) {
	// assignedSelectors maps each LHS selector of an assignment so writes
	// are distinguished from reads in the message.
	assigned := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					assigned[sel] = true
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
				assigned[sel] = true
			}
		}
		return true
	})

	ast.Inspect(file, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj := selectedFieldObj(pass, sel); obj != nil && atomicFields[obj] && !sanctioned[sel] {
			verb := "plain read of"
			if assigned[sel] {
				verb = "plain write to"
			}
			pass.Reportf(sel.Pos(), "%s field %q, which is accessed via sync/atomic elsewhere in "+
				"this package; every access must be atomic (mixed access tears under concurrency)",
				verb, sel.Sel.Name)
			return true
		}
		if assigned[sel] && atomicTypedField(pass, sel) {
			pass.Reportf(sel.Pos(), "plain assignment to atomic-typed field %q bypasses its "+
				"atomic method set; use its Store method (plain resets tear under concurrent readers)",
				sel.Sel.Name)
		}
		return true
	})
}

// selectedFieldObj returns the field object sel selects, or nil.
func selectedFieldObj(pass *Pass, sel *ast.SelectorExpr) types.Object {
	if !isFieldSelector(pass, sel) {
		return nil
	}
	return pass.ObjectOf(sel.Sel)
}
