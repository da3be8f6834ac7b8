// Package ctxplumb enforces the PR 2 cancellation contract at API
// boundaries: an exported function or method that launches goroutines
// must accept a context.Context as its first parameter, so callers can
// drain the work it fans out. An exported API that spawns concurrency
// without a context is uncancellable from outside — the precise gap the
// PR 2 plumbing (experiment.Run, workload.ProfileAll,
// reuse.CollectParallel) closed.
//
// The goroutine may be spawned anywhere lexically inside the function,
// including nested function literals. Unexported helpers are exempt
// (their callers own the contract), as are _test.go files.
package ctxplumb

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"partitionshare/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxplumb",
	Doc: "exported functions that spawn goroutines must take a " +
		"context.Context first parameter so callers can cancel the fan-out",
	Run:       run,
	FactTypes: []analysis.Fact{(*PlumbFact)(nil)},
}

// A PlumbFact lists this package's exported functions whose first
// parameter is a context.Context — the APIs whose concurrency a caller
// can cancel. Downstream, goroutinejoin treats `go dep.F(...)` as
// bounded when F appears here: the callee's fan-out drains when its
// context is cancelled, so the spawn is not fire-and-forget. Method
// entries are "Type.Method".
type PlumbFact struct {
	CtxFirst []string
}

func (*PlumbFact) AFact() {}

func run(pass *analysis.Pass) error {
	var ctxFirst []string
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			if takesContextFirst(pass, fd) {
				ctxFirst = append(ctxFirst, factName(fd))
				continue
			}
			if pos, spawns := firstGoStmt(fd.Body); spawns {
				pass.Reportf(pos,
					"exported %s spawns goroutines but does not take a context.Context first parameter; the fan-out cannot be cancelled by callers", fd.Name.Name)
			}
		}
	}
	if len(ctxFirst) > 0 {
		sort.Strings(ctxFirst)
		if err := pass.ExportPackageFact(&PlumbFact{CtxFirst: ctxFirst}); err != nil {
			return err
		}
	}
	return nil
}

// factName is the package-relative name a function is recorded under in
// PlumbFact: "Func", or "Type.Method" with any pointer stripped.
func factName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip any type parameters (Type[T]) down to the base identifier.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// FuncFactName returns the PlumbFact entry name for a resolved function
// object, for importers matching call targets against the fact.
func FuncFactName(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return obj.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + obj.Name()
	}
	return obj.Name()
}

// takesContextFirst reports whether fd's first parameter is a
// context.Context.
func takesContextFirst(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	params := obj.Type().(*types.Signature).Params()
	if params.Len() == 0 {
		return false
	}
	named, ok := params.At(0).Type().(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Name() == "Context" && o.Pkg() != nil && o.Pkg().Path() == "context"
}

// firstGoStmt returns the position of the first go statement lexically
// inside body, if any.
func firstGoStmt(body *ast.BlockStmt) (pos token.Pos, spawns bool) {
	var found *ast.GoStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if g, ok := n.(*ast.GoStmt); ok {
			found = g
			return false
		}
		return true
	})
	if found == nil {
		return 0, false
	}
	return found.Pos(), true
}
