package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Durability-bearing packages: an ignored error from these types means
// an acked write may not actually be on disk.
var walErrPkgs = []string{
	"kyrix/internal/wal",
	"kyrix/internal/store",
}

// WALErr enforces the PR 7/8 durability contract: errors from the
// write-ahead log and the persistent store are load-bearing — an
// Append or Sync that failed means the commit the caller is about to
// ack never became durable.
var WALErr = &Analyzer{
	Name: "walerr",
	Doc: `check that wal/store errors are not silently discarded

A call to any error-returning method on a type from kyrix/internal/wal
or kyrix/internal/store must consume its error: invisible discards — a
bare call statement, or a call hidden behind defer or go — are
flagged. Assigning the error explicitly to _ is allowed when a comment
on that line or the line above says why: it is then a visible,
greppable decision, where a bare call reads as "cannot fail". An
uncommented _ discard is flagged too. This is the PR 7/8 class: a
dropped wal.Sync error turns a quorum-acked update into data loss on
the next crash.`,
	Run: runWALErr,
}

func runWALErr(pass *Pass) error {
	for _, file := range pass.Files {
		commented := commentedLines(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			var call *ast.CallExpr
			var how string
			switch st := n.(type) {
			case *ast.AssignStmt:
				call = blankErrorCall(st)
				line := pass.Fset.Position(st.Pos()).Line
				if call == nil || commented[line] || commented[line-1] {
					return true
				}
				how = "assigned to _ without a comment"
			case *ast.ExprStmt:
				call, _ = st.X.(*ast.CallExpr)
				how = "ignored"
			case *ast.DeferStmt:
				call = st.Call
				how = "discarded by defer"
			case *ast.GoStmt:
				call = st.Call
				how = "discarded by go"
			default:
				return true
			}
			if call == nil {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || !durabilityMethod(fn) {
				return true
			}
			pass.Reportf(call.Pos(),
				"error from (%s).%s %s: wal/store errors are durability signals (handle it, or assign to _ with a comment)",
				recvTypeString(fn), fn.Name(), how)
			return true
		})
	}
	return nil
}

// blankErrorCall returns the call on the right of an assignment that
// sends the call's last result (its error, for a durability method) to
// the blank identifier, or nil.
func blankErrorCall(st *ast.AssignStmt) *ast.CallExpr {
	if len(st.Rhs) != 1 || len(st.Lhs) == 0 {
		return nil
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	if id, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident); !ok || id.Name != "_" {
		return nil
	}
	return call
}

// commentedLines returns the lines of file that a comment starts or
// ends on.
func commentedLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			lines[fset.Position(c.Pos()).Line] = true
			lines[fset.Position(c.End()).Line] = true
		}
	}
	return lines
}

// durabilityMethod reports whether fn is an error-returning method on
// a type from one of the durability packages.
func durabilityMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !isErrorType(last) {
		return false
	}
	for _, p := range walErrPkgs {
		if typeFromPackage(sig.Recv().Type(), p) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	n := namedOrigin(t)
	return n != nil && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

func recvTypeString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if n := namedOrigin(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return sig.Recv().Type().String()
}
