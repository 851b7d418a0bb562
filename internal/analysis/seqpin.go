package analysis

import (
	"go/ast"
	"go/types"
)

// SeqPin guards the exactness contract of the sharded pipeline's join:
// the route stage, the only reader of the shared dhcp.LeaseStore /
// dnssim.LabelStore, may read them only through the sequence-pinned
// accessors (LookupAt/LabelAt-style methods taking a pin), never through
// an unpinned head view. The dispatcher folds a whole event run's
// broadcasts into the stores before the route lanes resolve the run, so
// an unpinned read compiles and returns plausible data, but it sees
// broadcasts that arrived *after* the event being routed — the admission
// shipped to the shard silently diverges from the single pipeline, which
// is the one bug class the seq-pinning protocol exists to rule out.
//
// Concretely: within internal/core, every method call on a LeaseStore or
// LabelStore value must either carry a uint64 pin/seq parameter (the
// pinned readers and the sequence-tagged writer) or be a named side-table
// gauge (RetainedBytes). Anything else — Addrs, a future unpinned Lookup,
// an iteration helper — is a finding.
var SeqPin = &Analyzer{
	Name: "seqpin",
	Doc: "the route stage must read the shared lease/label stores through " +
		"seq-pinned accessors (LookupAt/LabelAt), never the unpinned head",
	Run: runSeqPin,
}

// seqPinCallers are the packages holding the route stage and the
// dispatcher that writes the stores (suffix-matched).
var seqPinCallers = []string{
	"internal/core",
}

// seqPinStores names the guarded store types by (package suffix, type
// name).
var seqPinStores = map[string][]string{
	"internal/dhcp":   {"LeaseStore"},
	"internal/dnssim": {"LabelStore"},
}

// seqPinGauges are store methods exempt from pinning: read-only gauges
// over store metadata (not join state).
var seqPinGauges = map[string]bool{
	"RetainedBytes": true,
}

func runSeqPin(pass *Pass) error {
	if !pathMatches(pass.Path(), seqPinCallers) {
		return nil
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			storeName, method, ok := guardedStoreCall(pass, call)
			if !ok {
				return true
			}
			if seqPinGauges[method.Name()] || hasPinParam(method) {
				return true
			}
			pass.Reportf(call.Pos(), "%s.%s reads the shared %s without a sequence pin; the "+
				"route stage must use the seq-pinned accessors (LookupAt/LabelAt-style, "+
				"uint64 pin parameter) so lookups see exactly the single pipeline's join state",
				storeName, method.Name(), storeName)
			return true
		})
	}
	return nil
}

// guardedStoreCall reports whether call invokes a method on one of the
// guarded store types, returning the store type name and the method.
func guardedStoreCall(pass *Pass, call *ast.CallExpr) (string, *types.Func, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil, false
	}
	fn, _ := pass.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil {
		return "", nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil, false
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", nil, false
	}
	for pkgSuffix, typeNames := range seqPinStores {
		if !pathMatches(named.Obj().Pkg().Path(), []string{pkgSuffix}) {
			continue
		}
		if contains(typeNames, named.Obj().Name()) {
			return named.Obj().Name(), fn, true
		}
	}
	return "", nil, false
}

// hasPinParam reports whether the method signature carries an explicit
// uint64 sequence parameter named pin or seq — the structural signature of
// the pinned accessors and the sequence-tagged writer.
func hasPinParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		if p.Name() != "pin" && p.Name() != "seq" {
			continue
		}
		if b, ok := p.Type().Underlying().(*types.Basic); ok && b.Kind() == types.Uint64 {
			return true
		}
	}
	return false
}
