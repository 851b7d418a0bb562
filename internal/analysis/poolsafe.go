package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolSafe guards the recycling contract around sync.Pool — today the
// log replay's runPool, whose decode runs are recycled across the replays
// of a rotated dataset. Three rules, module-wide:
//
//   - no escape through exported APIs: a value obtained from pool.Get()
//     must not be returned by an exported function or method — the caller
//     would hold a buffer the pool is free to hand to someone else the
//     moment it is Put back;
//   - no use after Put: once pool.Put(x) runs, x belongs to the pool (and
//     possibly to another goroutine already); any later use of x in the
//     same function is a finding;
//   - reset before Put: if the pooled struct carries per-use state (slice,
//     pointer, map, or interface fields, or a length/count-style int
//     field), some statement in the Put's block must clear it first — a
//     field assignment on x or a Reset-style method call — so a recycled
//     value can never leak one use's contents (or retained pointers) into
//     the next.
//
// The use-after-Put rule is lexical (statement position within the
// function), which is exactly right for the straight-line recycle sites
// the contract prescribes; code too clever for that reads as a finding and
// should be simplified or justified with an ignore directive.
var PoolSafe = &Analyzer{
	Name: "poolsafe",
	Doc: "sync.Pool values must not escape exported APIs, must not be used " +
		"after Put, and must have per-use state reset before Put",
	Run: runPoolSafe,
}

func runPoolSafe(pass *Pass) error {
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolFunc(pass, fd)
		}
	}
	return nil
}

// isPoolMethodCall reports whether call is pool.Get or pool.Put on a
// sync.Pool (or *sync.Pool) receiver, returning the method name.
func isPoolMethodCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Get" && name != "Put" {
		return "", false
	}
	fn, _ := pass.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Pool" {
		return "", false
	}
	return name, true
}

// poolGetSource returns the pool.Get call inside rhs, unwrapping one type
// assertion (`pool.Get().(*T)`), or nil.
func poolGetSource(pass *Pass, rhs ast.Expr) *ast.CallExpr {
	e := ast.Unparen(rhs)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if name, ok := isPoolMethodCall(pass, call); !ok || name != "Get" {
		return nil
	}
	return call
}

func checkPoolFunc(pass *Pass, fd *ast.FuncDecl) {
	// pooledVars: objects assigned directly from pool.Get() in this
	// function (through at most one type assertion).
	pooledVars := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if poolGetSource(pass, rhs) == nil {
				continue
			}
			if id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil {
					pooledVars[obj] = true
				}
			}
		}
		return true
	})

	// Rule 1: pooled values must not be returned from exported functions —
	// neither a variable holding a Get result nor a Get call returned
	// directly.
	if fd.Name.IsExported() {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false // a closure's returns are not fd's API
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				if poolGetSource(pass, res) != nil {
					pass.Reportf(ret.Pos(), "pool.Get result escapes through exported %s; "+
						"the pool may hand this buffer to another goroutine after Put — copy it "+
						"or keep the pooled type internal", fd.Name.Name)
					continue
				}
				for obj := range pooledVars {
					if mentionsObject(pass, res, obj) {
						pass.Reportf(ret.Pos(), "pooled value %q escapes through exported %s; "+
							"the pool may hand this buffer to another goroutine after Put — copy it "+
							"or keep the pooled type internal", obj.Name(), fd.Name.Name)
					}
				}
			}
			return true
		})
	}

	// Rules 2 and 3 hang off each Put site.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := isPoolMethodCall(pass, call); !ok || name != "Put" || len(call.Args) != 1 {
			return true
		}
		id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true // Put of a fresh composite/new(...) needs no reset
		}
		obj := pass.ObjectOf(id)
		if obj == nil {
			return true
		}
		checkUseAfterPut(pass, fd.Body, call, obj)
		checkResetBeforePut(pass, fd.Body, call, obj)
		return true
	})
}

// checkUseAfterPut flags any use of obj lexically after the Put call in
// the same function (excluding the Put call itself and re-assignments that
// rebind the variable to a fresh value).
func checkUseAfterPut(pass *Pass, body *ast.BlockStmt, put *ast.CallExpr, obj types.Object) {
	rebound := token.Pos(-1)
	ast.Inspect(body, func(n ast.Node) bool {
		if assign, ok := n.(*ast.AssignStmt); ok && assign.Pos() > put.End() {
			for _, lhs := range assign.Lhs {
				if lid, ok := ast.Unparen(lhs).(*ast.Ident); ok && pass.ObjectOf(lid) == obj {
					if rebound == token.Pos(-1) || assign.Pos() < rebound {
						rebound = assign.Pos()
					}
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.ObjectOf(id) != obj {
			return true
		}
		if id.Pos() <= put.End() {
			return true
		}
		if rebound != token.Pos(-1) && id.Pos() >= rebound {
			return false // rebound to a fresh value; later uses are fine
		}
		pass.Reportf(id.Pos(), "%q is used after being returned to its pool with Put; "+
			"the pool (or another goroutine) owns it now", obj.Name())
		return false
	})
}

// checkResetBeforePut requires a per-use-state reset in the statements of
// the Put's enclosing block that precede it, when the pooled struct has
// state worth resetting.
func checkResetBeforePut(pass *Pass, body *ast.BlockStmt, put *ast.CallExpr, obj types.Object) {
	fields := resettableFields(obj.Type())
	if len(fields) == 0 {
		return
	}
	block := enclosingBlock(body, put.Pos())
	if block == nil {
		block = body
	}
	for _, stmt := range block.List {
		if stmt.End() > put.Pos() {
			break
		}
		if resetsState(pass, stmt, obj) {
			return
		}
	}
	pass.Reportf(put.Pos(), "Put returns %q to its pool without resetting per-use state "+
		"(fields: %s); a recycled value would leak the previous use's contents",
		obj.Name(), strings.Join(fields, ", "))
}

// resettableFields lists the fields of t (a struct, or pointer to one)
// that carry per-use state: slices, pointers, maps, interfaces, and
// length/count-style ints.
func resettableFields(t types.Type) []string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		switch f.Type().Underlying().(type) {
		case *types.Slice, *types.Pointer, *types.Map, *types.Interface, *types.Chan:
			out = append(out, f.Name())
		case *types.Basic:
			if isCountName(f.Name()) {
				out = append(out, f.Name())
			}
		}
	}
	return out
}

// isCountName matches the int fields conventionally used as logical
// lengths of fixed arrays (the slice-len analogue).
func isCountName(name string) bool {
	switch strings.ToLower(name) {
	case "n", "len", "length", "count", "used", "size":
		return true
	}
	return false
}

// resetsState reports whether stmt writes a field of obj or calls a
// Reset-style method on it.
func resetsState(pass *Pass, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
						found = true
						return false
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				strings.Contains(strings.ToLower(sel.Sel.Name), "reset") {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
}

// enclosingBlock returns the innermost *ast.BlockStmt containing pos.
func enclosingBlock(body *ast.BlockStmt, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt = body
	ast.Inspect(body, func(n ast.Node) bool {
		b, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		if b.Pos() <= pos && pos < b.End() {
			if best == nil || (b.Pos() >= best.Pos() && b.End() <= best.End()) {
				best = b
			}
		}
		return true
	})
	return best
}
