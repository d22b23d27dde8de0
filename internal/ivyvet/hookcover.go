package ivyvet

import (
	"go/types"

	"repro/internal/ivyvet/analysis"
	"repro/internal/ivyvet/callgraph"
)

// HookcoverAnalyzer checks that the instrumentation plane sees every
// access: each shared-memory access entry point in internal/core — an
// exported SVM method taking a Ctx that reaches the frameFor*
// page-frame tails — must reach one of the Observer's access or sync
// hooks. Those are what the race detector checks and what the
// profiler's dirty-word maps record; an accessor that skips them makes
// both silently wrong about the same run. A fault or protocol event
// (Observer.begin and the like) does not count: it says a page moved,
// not which words a process touched. Deliberate unobserved accessors
// carry a reasoned //ivyvet:ignore.
//
// The reachability runs on the whole-program call graph restricted to
// internal/core nodes (the frame tails and the Observer are
// core-internal), so closures and helpers added between an entry point
// and its tail keep the coverage visible.
var HookcoverAnalyzer = &analysis.Analyzer{
	Name: "hookcover",
	Doc: "flag exported SVM accessors in internal/core that reach page frames without an Observer access or sync hook; " +
		"the instrumentation plane (race detection, profiling) must see every access path",
	Run: runHookcover,
}

// hookcoverTouchers are the frame-returning tails: any function that
// reaches one of these hands out shared page bytes.
var hookcoverTouchers = map[string]bool{
	"frameForRead":         true,
	"frameForWrite":        true,
	"frameForReadChecked":  true,
	"frameForWriteChecked": true,
}

// hookcoverHooks are the Observer methods that report an access or a
// synchronization edge; reaching any of them satisfies the plane.
var hookcoverHooks = map[string]bool{
	"access":    true,
	"syncWrite": true,
	"Acquire":   true,
	"Release":   true,
	"MarkSync":  true,
}

func runHookcover(pass *analysis.Pass) (interface{}, error) {
	if simWorldComponent(pass.PkgPath) != "core" {
		return nil, nil
	}
	g := pass.Graph
	if g == nil {
		return nil, nil
	}
	// Keep the traversal inside the component: the tails and hooks are
	// core-internal, and stopping at the package edge keeps interface
	// dispatch (Ctx methods resolve by name+shape module-wide) from
	// connecting core to unrelated implementations.
	walk := callgraph.Walk{Skip: func(n *callgraph.Node) bool {
		return simWorldComponent(n.PathNoTest()) != "core"
	}}
	touches := func(m *callgraph.Node) bool { return hookcoverTouchers[m.Fn.Name()] }
	hooks := func(m *callgraph.Node) bool { return m.RecvName() == "Observer" && hookcoverHooks[m.Fn.Name()] }

	for _, n := range g.Nodes() {
		if n.Fn.Pkg() != pass.Pkg || !isSVMAccessEntryPoint(n.Fn, n) {
			continue
		}
		if !touches(n) && !g.Reaches(n, touches, walk) {
			continue // no frame data flows out of this method
		}
		if !g.Reaches(n, hooks, walk) {
			pass.Reportf(n.Decl.Name.Pos(),
				"%s reaches page frames without an observer hook: shared-memory access entry points must report each access on the checked tail (Observer.access, or syncWrite/Acquire/Release/MarkSync for synchronization) so the race detector and the profiler see it", n.Fn.Name())
		}
	}
	return nil, nil
}

// isSVMAccessEntryPoint reports whether a node is an exported method on
// SVM taking a Ctx parameter — the shape of every client-facing
// shared-memory accessor.
func isSVMAccessEntryPoint(fn *types.Func, n *callgraph.Node) bool {
	if !n.Decl.Name.IsExported() || n.Decl.Recv == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil || namedTypeName(recv.Type()) != "SVM" {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if namedTypeName(sig.Params().At(i).Type()) == "Ctx" {
			return true
		}
	}
	return false
}

// namedTypeName unwraps a pointer and returns the named type's name, or
// "" for unnamed types.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
