package analysis

import (
	"go/ast"
	"go/types"
)

// wirePkgPath is the sanctioned decompression package: its Decompress
// inflates with the package's own inflater, which stops at a byte limit
// — it IS the bound, so the bounded-read rules do not apply inside it
// (its tests hold the inflater to compress/flate's reader).
const wirePkgPath = "kyrix/internal/wire"

// BoundedRead enforces the PR 3 decompression-bomb fix as a standing
// rule: unbounded reads over readers of unknown size are forbidden.
var BoundedRead = &Analyzer{
	Name: "boundedread",
	Doc: `check that io.ReadAll and decompressor construction are size-bounded

io.ReadAll must not be applied to a reader of unknown length (an HTTP
body, a decompressor, a peer stream): wrap the reader in io.LimitReader
or http.MaxBytesReader first, or read through wire.Decompress, whose
inflater stops at a byte budget. Reads from in-memory sources
(*bytes.Buffer, *bytes.Reader, *strings.Reader) are allowed.
Constructing a flate/gzip/zlib reader directly is flagged outside
kyrix/internal/wire for the same reason: a tiny compressed frame can
decompress to gigabytes, and only wire.Decompress applies the repo's
bound.`,
	Run: runBoundedRead,
}

func runBoundedRead(pass *Pass) error {
	if pass.Pkg != nil && pass.Pkg.Path() == wirePkgPath {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, dec := range [...]string{"compress/flate", "compress/gzip", "compress/zlib"} {
				if calleeIs(pass.Info, call, dec, "NewReader") {
					pass.Reportf(call.Pos(),
						"direct %s.NewReader: decompress through wire.Decompress, which bounds output bytes", pathBase(dec))
					return true
				}
			}
			if calleeIs(pass.Info, call, "io", "ReadAll") && len(call.Args) == 1 {
				if !boundedReader(pass, call.Args[0]) {
					pass.Reportf(call.Pos(),
						"io.ReadAll on a reader of unknown size: wrap with io.LimitReader (or http.MaxBytesReader) first")
				}
			}
			return true
		})
	}
	return nil
}

func pathBase(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

// boundedReader reports whether e is provably a bounded source: a
// LimitReader/MaxBytesReader call, an in-memory reader, or a local
// variable assigned from one.
func boundedReader(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if calleeIs(pass.Info, call, "io", "LimitReader") ||
			calleeIs(pass.Info, call, "net/http", "MaxBytesReader") {
			return true
		}
	}
	if tv, ok := pass.Info.Types[e]; ok && inMemoryReader(tv.Type) {
		return true
	}
	// One hop through a local definition: r := io.LimitReader(...).
	if id, ok := e.(*ast.Ident); ok {
		if def := definingExpr(pass, id); def != nil {
			if call, ok := ast.Unparen(def).(*ast.CallExpr); ok {
				if calleeIs(pass.Info, call, "io", "LimitReader") ||
					calleeIs(pass.Info, call, "net/http", "MaxBytesReader") {
					return true
				}
			}
		}
	}
	return false
}

func inMemoryReader(t types.Type) bool {
	n := namedOrigin(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	switch n.Obj().Pkg().Path() + "." + n.Obj().Name() {
	case "bytes.Buffer", "bytes.Reader", "strings.Reader":
		return true
	}
	return false
}

// definingExpr finds the RHS expression a short-variable-declared
// identifier was initialized from, scanning the file that uses it.
func definingExpr(pass *Pass, use *ast.Ident) ast.Expr {
	obj := pass.Info.Uses[use]
	if obj == nil {
		return nil
	}
	var def ast.Expr
	for _, file := range pass.Files {
		if file.Pos() > obj.Pos() || file.End() < obj.Pos() {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.Info.Defs[id] == obj {
					def = as.Rhs[i]
				}
			}
			return true
		})
	}
	return def
}
