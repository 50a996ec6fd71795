package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// StorageErr enforces the not-found discipline of the storage layer: only
// errors.Is(err, storage.ErrNotFound) (or its wrapper ErrNoSuchTuple) means
// "the tuple is gone"; every other error from a heap Get/Update/Delete is an
// I/O fault — a buffer-pool write-back failure surfacing from an eviction,
// say — and must change control flow. A maintenance path that reads a
// faulted Get as "key missing" drops the delta: it is never journaled, yet
// the commit is acknowledged.
//
// The analyzer targets calls to Get, Update, and Delete methods that return
// an error, on any type of a package named "storage" and on db.Table. When
// the call's error is bound to a variable and then branched on — the
// if-statement carrying the call in its init, or the run of if-statements
// directly after the assignment whose conditions mention the variable —
// each such branch must either test errors.Is(err, ErrNotFound /
// ErrNoSuchTuple) in its condition or propagate the error: return it,
// assign it somewhere, send it, or panic with it. An `if err == nil`
// branch is the no-error path; the error it lets fall through must be
// handled by a later branch of the run (or its else).
var StorageErr = &Analyzer{
	Name: "storageerr",
	Doc:  "check that branches on storage Get/Update/Delete errors propagate the error or test errors.Is(err, storage.ErrNotFound)",
	Run:  runStorageErr,
}

// storageErrSwallowed is the finding for a branch that drops the error.
const storageErrSwallowed = "error from %s is neither propagated nor tested with errors.Is(err, storage.ErrNotFound); a storage fault must not read as a missing tuple"

// storageErrOps are the heap operations whose errors the analyzer tracks.
var storageErrOps = map[string]bool{"Get": true, "Update": true, "Delete": true}

func runStorageErr(pass *Pass) error {
	info := pass.TypesInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			default:
				return true
			}
			for i, st := range list {
				switch st := st.(type) {
				case *ast.IfStmt:
					if v, name := storageErrBinding(info, st.Init); v != nil {
						checkStorageErrBranches(pass, v, name, []*ast.IfStmt{st})
					}
				case *ast.AssignStmt:
					if v, name := storageErrBinding(info, st); v != nil {
						checkStorageErrBranches(pass, v, name, branchesOn(info, v, list[i+1:]))
					}
				}
			}
			return true
		})
	}
	return nil
}

// storageErrBinding reports the variable that stmt binds to the error
// result of a tracked storage call, and names the call.
func storageErrBinding(info *types.Info, stmt ast.Stmt) (types.Object, string) {
	assign, ok := stmt.(*ast.AssignStmt)
	if !ok || len(assign.Rhs) != 1 {
		return nil, ""
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || !storageErrOps[fn.Name()] {
		return nil, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, ""
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return nil, ""
	}
	pkg, typ := fn.Pkg().Name(), named.Obj().Name()
	if pkg != "storage" && (pkg != "db" || typ != "Table") {
		return nil, ""
	}
	results := sig.Results()
	if results.Len() != len(assign.Lhs) {
		return nil, ""
	}
	for i := 0; i < results.Len(); i++ {
		if !isErrorType(results.At(i).Type()) {
			continue
		}
		id, ok := assign.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil, ""
		}
		return info.ObjectOf(id), pkg + "." + typ + "." + fn.Name()
	}
	return nil, ""
}

// branchesOn returns the run of if-statements at the head of stmts whose
// conditions mention v.
func branchesOn(info *types.Info, v types.Object, stmts []ast.Stmt) []*ast.IfStmt {
	var out []*ast.IfStmt
	for _, st := range stmts {
		ifs, ok := st.(*ast.IfStmt)
		if !ok || !mentions(info, ifs.Cond, v) {
			break
		}
		out = append(out, ifs)
	}
	return out
}

// checkStorageErrBranches reports each branch on v that neither tests for
// not-found nor propagates v.
func checkStorageErrBranches(pass *Pass, v types.Object, name string, branches []*ast.IfStmt) {
	info := pass.TypesInfo
	for i, ifs := range branches {
		if testsNotFound(info, ifs.Cond, v) {
			continue
		}
		if isNilCheck(info, ifs.Cond, v) {
			// The no-error path: the error falls through to the else or
			// the next branch of the run.
			if ifs.Else != nil {
				if !propagates(info, ifs.Else, v) {
					pass.Reportf(ifs.Else.Pos(), storageErrSwallowed, name)
				}
			} else if i == len(branches)-1 {
				pass.Reportf(ifs.Pos(), "error from %s falls through unhandled past its nil check; propagate it or test errors.Is(err, storage.ErrNotFound)", name)
			}
			continue
		}
		if !propagates(info, ifs.Body, v) && (ifs.Else == nil || !propagates(info, ifs.Else, v)) {
			pass.Reportf(ifs.Pos(), storageErrSwallowed, name)
		}
	}
}

// testsNotFound reports whether e contains errors.Is(v, X) with X named
// ErrNotFound or ErrNoSuchTuple.
func testsNotFound(info *types.Info, e ast.Expr, v types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return !found
		}
		fn := calleeOf(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "errors" || fn.Name() != "Is" {
			return !found
		}
		if !mentions(info, call.Args[0], v) {
			return !found
		}
		var target string
		switch t := ast.Unparen(call.Args[1]).(type) {
		case *ast.SelectorExpr:
			target = t.Sel.Name
		case *ast.Ident:
			target = t.Name
		}
		if target == "ErrNotFound" || target == "ErrNoSuchTuple" {
			found = true
		}
		return !found
	})
	return found
}

// isNilCheck reports whether e is exactly `v == nil` (or `nil == v`).
func isNilCheck(info *types.Info, e ast.Expr, v types.Object) bool {
	bin, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return false
	}
	isV := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && info.ObjectOf(id) == v
	}
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isV(bin.X) && isNil(bin.Y)) || (isNil(bin.X) && isV(bin.Y))
}

// propagates reports whether n hands v on: returns it, assigns it to
// something other than itself or the blank identifier, sends it, or panics
// with it (each possibly wrapped, e.g. fmt.Errorf("...: %w", err)).
func propagates(info *types.Info, n ast.Node, v types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				found = found || mentions(info, r, v)
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if isBlank(l) || mentions(info, l, v) {
					continue
				}
				for _, r := range n.Rhs {
					found = found || mentions(info, r, v)
				}
			}
		case *ast.SendStmt:
			found = found || mentions(info, n.Value, v)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				for _, a := range n.Args {
					found = found || mentions(info, a, v)
				}
			}
		}
		return !found
	})
	return found
}

// mentions reports whether e refers to v.
func mentions(info *types.Info, e ast.Node, v types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.ObjectOf(id) == v {
			found = true
		}
		return !found
	})
	return found
}
