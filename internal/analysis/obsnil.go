package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ObsNil guards the zero-alloc disabled path of the observability layer:
// the pipeline holds possibly-nil *obs.Metrics / *obs.Progress /
// *obs.Counter handles, and every exported pointer-receiver method must
// tolerate a nil receiver (doc contract of package obs; verified dynamically by
// TestNilMetricsZeroAlloc, enforced structurally here). A method may not
// touch its receiver before either an early-return nil guard
// (`if m == nil { return ... }`) or a wrapping non-nil guard
// (`if m != nil { ... }`).
var ObsNil = &Analyzer{
	Name: "obsnil",
	Doc: "exported pointer-receiver methods on obs handle types must guard " +
		"against a nil receiver before using it (zero-alloc disabled path)",
	Run: runObsNil,
}

// obsNilGuarded maps package path suffix → receiver type names whose
// methods carry the nil-receiver contract.
var obsNilGuarded = map[string][]string{
	"internal/obs": {"Metrics", "Progress", "Counter"},
}

func runObsNil(pass *Pass) error {
	var guarded []string
	for suffix, typeNames := range obsNilGuarded {
		if pathMatches(pass.Path(), []string{suffix}) {
			guarded = append(guarded, typeNames...)
		}
	}
	if len(guarded) == 0 {
		return nil
	}
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recvType, recvIdent := receiverInfo(fd)
			if recvType == "" || !contains(guarded, recvType) {
				continue
			}
			if recvIdent == nil {
				continue // unnamed receiver can't be dereferenced
			}
			obj := pass.ObjectOf(recvIdent)
			if obj == nil {
				continue
			}
			if !nilGuarded(pass, fd.Body, obj) {
				pass.Reportf(fd.Pos(), "method (*%s).%s uses its receiver before a nil guard; "+
					"start with `if %s == nil { return ... }` so the disabled-observability path stays safe",
					recvType, fd.Name.Name, recvIdent.Name)
			}
		}
	}
	return nil
}

// receiverInfo returns the pointer receiver's base type name and the
// receiver identifier ("" / nil when not a pointer receiver).
func receiverInfo(fd *ast.FuncDecl) (string, *ast.Ident) {
	if len(fd.Recv.List) != 1 {
		return "", nil
	}
	field := fd.Recv.List[0]
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return "", nil // value receivers copy; nil cannot reach them
	}
	base := star.X
	if idx, ok := base.(*ast.IndexExpr); ok {
		base = idx.X
	}
	id, ok := base.(*ast.Ident)
	if !ok {
		return "", nil
	}
	if len(field.Names) == 0 {
		return id.Name, nil
	}
	return id.Name, field.Names[0]
}

// nilGuarded walks the method body in order: statements may not use the
// receiver until a guard is seen. An equality guard (`if m == nil` first
// in an || chain, body ending in return) protects the whole remainder; an
// inequality guard (`if m != nil` first in an && chain) protects only its
// own block, so scanning continues after it.
func nilGuarded(pass *Pass, body *ast.BlockStmt, recv types.Object) bool {
	for _, stmt := range body.List {
		switch guardKind(pass, stmt, recv) {
		case guardReturn:
			return true
		case guardWrap:
			continue
		}
		if usesObject(pass, stmt, recv) {
			return false
		}
	}
	return true
}

type guard int

const (
	guardNone guard = iota
	guardReturn
	guardWrap
)

func guardKind(pass *Pass, stmt ast.Stmt, recv types.Object) guard {
	ifStmt, ok := stmt.(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return guardNone
	}
	if isNilCheck(pass, leftmost(ifStmt.Cond, token.LOR), recv, token.EQL) {
		if endsInReturn(ifStmt.Body) && ifStmt.Else == nil {
			return guardReturn
		}
		return guardNone
	}
	if isNilCheck(pass, leftmost(ifStmt.Cond, token.LAND), recv, token.NEQ) && ifStmt.Else == nil {
		return guardWrap
	}
	return guardNone
}

// leftmost peels a left-associative chain of op down to its first operand.
func leftmost(e ast.Expr, op token.Token) ast.Expr {
	for {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok || b.Op != op {
			return ast.Unparen(e)
		}
		e = b.X
	}
}

// isNilCheck reports whether e is `recv <op> nil` (either operand order).
func isNilCheck(pass *Pass, e ast.Expr, recv types.Object, op token.Token) bool {
	b, ok := e.(*ast.BinaryExpr)
	if !ok || b.Op != op {
		return false
	}
	isRecv := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && pass.ObjectOf(id) == recv
	}
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(b.X) && isNil(b.Y)) || (isNil(b.X) && isRecv(b.Y))
}

func endsInReturn(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	last := body.List[len(body.List)-1]
	switch last.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		// panic(...) terminates too
		call, ok := last.(*ast.ExprStmt).X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

func usesObject(pass *Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
