// Package lint is vnlvet's analysis suite: eleven custom analyzers that
// mechanically enforce the invariants 2VNL's correctness rests on but the
// compiler cannot see — the §3 latch/table discipline of the core engine,
// and the wire/concurrency contract of the serving stack (PROTOCOL.md):
//
//   - latchsafety: every latch acquisition is released on all paths, never
//     nested, and no blocking call (WAL append/fsync, channel operation,
//     time.Sleep, condition waits) runs while the latch is held. The paper
//     assumes "a simple latching mechanism" of short duration; a blocking
//     call under the latch silently converts it into a long-duration lock.
//   - guardedwrite: struct fields annotated "guarded by mu" are only
//     written while the latch is held (or in *Locked helpers that document
//     the caller holds it). currentVN and maintenanceActive are the §3
//     global variables; an unlatched write races every reader session.
//   - tableexhaustive: switches over named constant types (the operation
//     enum of Tables 2–4, WAL record kinds) either cover every declared
//     constant or carry a non-empty default. The decision tables are
//     exhaustive by construction in the paper; a missed case here is a
//     silently dropped decision cell.
//   - obsregistry: metrics are registered with stable snake_case names
//     under the subsystem prefixes (core_, wal_, txn_, storage_, mvcc_,
//     bench_, server_), a non-empty help string, and no conflicting
//     duplicate registration within a package.
//   - walerr: errors from WAL and journal operations are consumed. The
//     write-ahead rule is only as strong as the weakest ignored fsync
//     error; LogCommit/Sync/Recover results may not even be blanked.
//   - goroutinelifecycle: every `go` statement in the serving stack has a
//     reachable join (WaitGroup, channel the owner receives, ctx-done) or
//     a `// detached:` justification — graceful drain depends on it.
//   - deadlinebound: blocking conn/bufio wire ops are dominated by a
//     SetReadDeadline/SetWriteDeadline/SetDeadline or a context with a
//     timeout, so a stalled peer cannot wedge a goroutine.
//   - framebounds: wire-decoded lengths are bounds-checked against the
//     16 MiB frame cap (or a declared bound) before reaching make or
//     slice indexing — the property FuzzFrameDecode can only sample.
//   - msgexhaustive: switches over wire message/error-code enums name
//     every declared constant even when a default exists; adding a
//     message kind without a handler is a lint error, not a runtime one.
//   - errleak: wire errors pass through a `//vnlvet:errmap` mapping
//     function — never an ad-hoc ErrMsg literal or raw err.Error() —
//     keeping codes stable and internal strings off the socket.
//   - storageerr: a branch on the error of a storage Get/Update/Delete
//     either propagates it or tests errors.Is(err, storage.ErrNotFound);
//     a buffer-pool fault read as "tuple missing" silently drops a
//     maintenance delta from an acknowledged commit.
//
// The package has no dependency outside the standard library: it carries a
// minimal re-implementation of the x/tools go/analysis surface (Analyzer,
// Pass, Diagnostic) plus a loader that type-checks module packages with
// go/types and the source importer, so `go run ./cmd/vnlvet ./...` works in
// a hermetic build environment.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check, mirroring the x/tools
// golang.org/x/tools/go/analysis Analyzer surface (Name, Doc, Run) so the
// checks could migrate to the real framework wholesale if the dependency
// ever becomes available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description, shown by `vnlvet -help`.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order: the five core-engine
// analyzers of PR 2, then the five serving-stack analyzers (goroutine
// joins, wire deadlines, frame bounds, wire-enum exhaustiveness, error
// leaks) added when internal/server and pkg/vnlclient grew past what the
// core checks could see, then the storage not-found discipline.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LatchSafety,
		GuardedWrite,
		TableExhaustive,
		ObsRegistry,
		WALErr,
		GoroutineLifecycle,
		DeadlineBound,
		FrameBounds,
		MsgExhaustive,
		ErrLeak,
		StorageErr,
	}
}

// ByName returns the named analyzers, or all of them for an empty list.
func ByName(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	out := make([]*Analyzer, 0, len(names))
	for _, n := range names {
		a := byName[n]
		if a == nil {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over the package and returns their findings
// sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return out, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
		}
		out = append(out, pass.diagnostics...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
