// Package goroutinejoin rejects fire-and-forget goroutines: every `go`
// statement in production code must be joined or bounded, so Stop/Drain
// paths can actually wait for the work and tests do not leak goroutines
// across cases. A spawn is accepted when its body (or its callee's
// body, one call deep within the package) shows one of the repository's
// sanctioned lifecycle patterns:
//
//   - WaitGroup join: the goroutine calls wg.Done() (the spawner owns a
//     matching Wait), as in the experiment and reuse worker pools;
//   - context bound: the goroutine consults ctx.Done(), as in the
//     service reoptimization loop and the obs debug-server watcher;
//   - close-join: the goroutine closes a channel it does not own, the
//     signal the spawner receives on, as in StartServer's close(srv.err);
//   - channel drain: the goroutine ranges over, or selects/receives
//     from, a channel, so closing the channel releases it, as in the
//     sweep's group workers.
//
// For a spawned call into another module package the analyzer accepts a
// context.Context argument at the call site, or — via the PlumbFact
// ctxplumb exports — a callee recorded as a context-first API (the fact
// covers call shapes where no argument's static type is context.Context,
// e.g. a nil ctx forwarded through an any-typed value). _test.go files
// are exempt.
package goroutinejoin

import (
	"go/ast"
	"go/types"

	"partitionshare/internal/analysis"
	"partitionshare/internal/analysis/ctxplumb"
)

var Analyzer = &analysis.Analyzer{
	Name: "goroutinejoin",
	Doc: "every spawned goroutine must be joined (WaitGroup, close-join) or " +
		"bounded (ctx.Done, channel drain); fire-and-forget goroutines leak",
	Run:       run,
	FactTypes: []analysis.Fact{(*ctxplumb.PlumbFact)(nil)},
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, decls: make(map[*types.Func]*ast.FuncDecl)}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok && !c.bounded(g.Call, 0) {
				pass.Reportf(g.Pos(),
					"goroutine is neither joined (WaitGroup, close-join) nor bounded (ctx.Done, channel drain); it cannot be waited for or stopped")
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
}

// bounded reports whether the spawned call is joined or bounded. depth
// limits recursion through same-package callees to one level: the
// repository's patterns put the lifecycle evidence either in the spawn
// literal or directly in the worker function it names.
func (c *checker) bounded(call *ast.CallExpr, depth int) bool {
	// A context argument at the spawn site means the callee is
	// cancellable (ctxplumb enforces that for exported spawners).
	for _, a := range call.Args {
		if tv, ok := c.pass.TypesInfo.Types[a]; ok && analysis.IsContextType(tv.Type) {
			return true
		}
	}
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return c.bodyBounded(fun.Body, depth)
	case *ast.Ident, *ast.SelectorExpr:
		obj := calleeObj(c.pass, call)
		if obj == nil {
			return false
		}
		if fd, ok := c.decls[obj]; ok {
			return depth < 1 && c.bodyBounded(fd.Body, depth+1)
		}
		// Cross-package spawn: trust the dependency's ctxplumb fact.
		if pkg := obj.Pkg(); pkg != nil && pkg != c.pass.Pkg {
			var fact ctxplumb.PlumbFact
			if c.pass.ImportPackageFact(pkg.Path(), &fact) {
				want := ctxplumb.FuncFactName(obj)
				for _, name := range fact.CtxFirst {
					if name == want {
						return true
					}
				}
			}
			// Without a fact, fall back to the signature the importer
			// loaded: a context-first callee is cancellable by design.
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Params().Len() > 0 {
				return analysis.IsContextType(sig.Params().At(0).Type())
			}
		}
	}
	return false
}

// bodyBounded scans a goroutine body for the sanctioned lifecycle
// patterns. Nested function literals count: the evidence may sit inside
// a defer'd literal.
func (c *checker) bodyBounded(body *ast.BlockStmt, depth int) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			switch fun := e.Fun.(type) {
			case *ast.Ident:
				// close(ch): the goroutine signals completion by closing
				// a join channel the spawner receives on.
				if fun.Name == "close" && isBuiltin(c.pass, fun) {
					found = true
					return false
				}
				// A worker function named directly inside the body.
				if depth < 1 {
					if obj, ok := c.pass.TypesInfo.Uses[fun].(*types.Func); ok {
						if fd, ok := c.decls[obj]; ok && c.bodyBounded(fd.Body, depth+1) {
							found = true
							return false
						}
					}
				}
			case *ast.SelectorExpr:
				if c.isJoinCall(fun) {
					found = true
					return false
				}
				if depth < 1 {
					if obj, ok := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
						if fd, ok := c.decls[obj]; ok && c.bodyBounded(fd.Body, depth+1) {
							found = true
							return false
						}
					}
				}
			}
		case *ast.RangeStmt:
			// for range ch — the worker drains until the spawner closes
			// the channel.
			if tv, ok := c.pass.TypesInfo.Types[e.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
					return false
				}
			}
		case *ast.UnaryExpr:
			// A receive: the goroutine waits on a stop/done channel the
			// spawner controls (ctx.Done() receives also land here).
			if e.Op.String() == "<-" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isJoinCall recognizes wg.Done() on a sync.WaitGroup and ctx.Done()
// on a context.Context.
func (c *checker) isJoinCall(sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	if analysis.IsContextType(tv.Type) {
		return true
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	return o.Name() == "WaitGroup" && o.Pkg() != nil && o.Pkg().Path() == "sync"
}

func isBuiltin(pass *analysis.Pass, id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func calleeObj(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return obj
	case *ast.SelectorExpr:
		obj, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return obj
	}
	return nil
}
