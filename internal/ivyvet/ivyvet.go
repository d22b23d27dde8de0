// Package ivyvet is the simulator's custom static-analysis suite: nine
// analyzers that mechanically enforce invariants this reproduction
// otherwise trusts to convention and review. Since v2 the suite runs
// over a whole-program call graph (internal/ivyvet/callgraph, shared
// across analyzers through Pass.Graph), so invariants phrased as
// reachability — "nothing in the simulated world reaches a goroutine
// launch", "no cycle in the lock order" — are checked module-wide, not
// per file.
//
// Per-package analyzers:
//
//   - determinism: simulated-world packages must not consult wall-clock
//     time, the global math/rand source, or spawn bare goroutines —
//     virtual time and scheduling advance only through sim.Engine.
//   - maporder: map iteration whose body drives simulation behavior
//     (message sends, fiber wakes, frame traffic) is a silent
//     nondeterminism hazard; keys must be collected and sorted first.
//   - shootdown: every frame installation in internal/core must route
//     through SVM.install, which advances the TLB shootdown epoch when
//     memfs.Pool.Put replaces a resident frame's bytes in place.
//   - wiresym: every registered wire message kind must have a name, a
//     decoder factory, a Kind method agreeing with its registration,
//     and Encode/Decode bodies that move the same field sequence.
//
// Whole-program analyzers (these assume the full module is loaded; on
// a subset load they can over-report, since the evidence that
// satisfies them — handler registrations, hook calls, the chaos
// classification table — may live in packages outside the request):
//
//   - hotpath: functions annotated //ivy:hotpath must stay free of
//     allocating constructs; callees must be hotpath-annotated,
//     transitively allocation-free per the call graph, or declared
//     cold exits (calls= entries that no call uses are flagged).
//   - worldsplit: channel operations, sync/sync-atomic objects, and
//     transitive paths into internal/parallel or host primitives are
//     findings everywhere in the simulated world except //ivy:hostworld
//     machinery in internal/sim and internal/parallel.
//   - lockorder: derives the static lock acquisition graph (classes
//     discovered by their fiber-blocking Lock/Acquire shape) with a
//     flow-sensitive held-set dataflow per function, and reports
//     ordering cycles — the PR 4 forward-record deadlock class — and
//     unordered same-class nesting.
//   - hookcover: every shared-memory access entry point in
//     internal/core (exported SVM method taking a Ctx that reaches
//     page frames) must reach the instrumentation plane's access or
//     sync hook, which feeds drace and the ivyprof metrics alike.
//   - wirehandler: every wire.Kind is classified in the chaos
//     kindClass table; request/notice kinds must have a handler arm
//     somewhere in the module, reply kinds must have none.
//
// A diagnostic is suppressed by a `//ivyvet:ignore <reason>` comment on
// the flagged line or the line above; the reason is mandatory, so every
// deliberate violation is documented at the site. Run the suite with
// `go run ./cmd/ivyvet ./...` (see that command and DESIGN.md §8);
// `-json` emits machine-readable findings and `-graph <func>` dumps a
// function's call-graph neighborhood for debugging reachability.
package ivyvet

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"repro/internal/ivyvet/analysis"
	"repro/internal/ivyvet/callgraph"
	"repro/internal/ivyvet/load"
)

// Analyzers returns the full suite in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DeterminismAnalyzer,
		MapOrderAnalyzer,
		ShootdownAnalyzer,
		HotpathAnalyzer,
		WiresymAnalyzer,
		WorldsplitAnalyzer,
		LockorderAnalyzer,
		HookcoverAnalyzer,
		WirehandlerAnalyzer,
	}
}

// Diagnostic is one resolved finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// RunProgram applies the analyzers to every package of a loaded program
// and returns the surviving diagnostics, sorted by position. Findings
// carrying an `//ivyvet:ignore reason` on their own or the preceding
// line are dropped; an ignore comment without a reason is itself
// reported, so the escape hatch cannot be used silently.
func RunProgram(pr *load.Program, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	graph := callgraph.Build(pr)
	var out []Diagnostic
	for _, pkg := range pr.Packages {
		ignored, bad := ignoreLines(pr.Fset, pkg)
		out = append(out, bad...)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pr.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				PkgPath:   pkg.PathNoTest(),
				PkgSyntax: pr.Syntax,
				Graph:     graph,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := pr.Fset.Position(d.Pos)
				if ignored[lineKey{pos.Filename, pos.Line}] {
					return
				}
				out = append(out, Diagnostic{Analyzer: name, Pos: pos, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("ivyvet: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
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
	return out, nil
}

type lineKey struct {
	file string
	line int
}

// ignoreLines indexes the //ivyvet:ignore comments of a package: a
// comment suppresses diagnostics on its own line and the line below it
// (covering both trailing and preceding placement). Ignores without a
// reason are returned as diagnostics.
func ignoreLines(fset *token.FileSet, pkg *load.Package) (map[lineKey]bool, []Diagnostic) {
	ignored := make(map[lineKey]bool)
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//ivyvet:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(rest) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "ivyvet",
						Pos:      pos,
						Message:  "ivyvet:ignore requires a reason: //ivyvet:ignore <why this violation is deliberate>",
					})
					continue
				}
				ignored[lineKey{pos.Filename, pos.Line}] = true
				ignored[lineKey{pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return ignored, bad
}

// simWorldComponent returns the first path component after "internal/"
// for an import path inside the simulated world, or "" when the path has
// no internal component. "repro/internal/core" yields "core".
func simWorldComponent(path string) string {
	const marker = "internal/"
	i := strings.Index(path, marker)
	if i > 0 && path[i-1] != '/' {
		return ""
	}
	if i < 0 {
		return ""
	}
	rest := path[i+len(marker):]
	if j := strings.IndexByte(rest, '/'); j >= 0 {
		rest = rest[:j]
	}
	return rest
}
