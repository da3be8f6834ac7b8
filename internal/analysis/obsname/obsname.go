// Package obsname enforces the observability naming contract: every
// metric and trace-span name handed to the registry is a package-
// prefixed dotted.snake named constant, registered once. Inline string
// literals invite the failure mode metrics cannot recover from — a
// typo'd near-duplicate silently forks a counter, and dashboards sum
// neither half. Named constants make the name greppable and reusable;
// the package prefix makes collisions structurally impossible unless
// two packages really do claim the same name, which the cross-package
// fact check then flags.
//
// Checked call shapes (by name and receiver/result type, so fixtures
// can model them without importing internal/obs):
//
//	reg.Counter(name) / reg.Gauge(name) / reg.Histogram(name)   — receiver type named Registry
//	reg.ChildSet(prefix, cap)                                    — receiver type named Registry
//	cs.Add(label, suffix, n) / cs.Observe(label, suffix, b, v)   — receiver type named ChildSet
//	Start(ctx, name, cat) / StartRequest(ctx, name, cat, tc)     — package-level functions returning a Span
//
// The name argument must be a use of a named string constant, or
// `constPrefix + expr` where constPrefix is a named constant ending in
// "." (the dynamic-family form, e.g. httpErrors + code). The constant's
// value must match `pkg.part` / `pkg.part.part…` in lower snake, with
// the first segment equal to the defining package's name.
//
// Child-set names split the namespace across two call sites: the
// ChildSet prefix carries the package namespace (so it is validated
// like a dynamic-family prefix — dotted.snake ending in "."), while the
// per-child suffix completes the name after the runtime-supplied label
// and therefore must NOT repeat the package prefix — it is validated as
// dotted.snake without the namespace requirement, as a plain constant
// ("queue_wait_ns") or a constant prefix + expr ("requests." + route).
//
// Spans whose category is the constant "stage" (obs.CatStage) are
// exempt: their names label manifest Stages ("profile", "sweep"), a
// different namespace pinned by goldens. The internal/obs package
// itself and _test.go files are exempt.
package obsname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"partitionshare/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "obsname",
	Doc: "metric/span names must be package-prefixed dotted.snake named " +
		"constants registered once; inline or duplicate names fork counters",
	Run:       run,
	FactTypes: []analysis.Fact{(*MetricFact)(nil)},
}

// A MetricFact maps each metric/span name a package registers to the
// qualified identifier of the defining constant ("pkgpath.ConstName"),
// so importing packages can flag a second registration of the same name
// through a different constant while still allowing a shared constant
// to be used from anywhere.
type MetricFact struct {
	Names map[string]string
}

func (*MetricFact) AFact() {}

var (
	nameRE   = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)
	prefixRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*\.$`)
	// Child suffixes may be a single segment ("requests") — the child
	// set's prefix supplies the namespace dots.
	suffixRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$`)
)

type registration struct {
	obj  *types.Const
	desc string // "constName (file:line)" of the defining constant
}

func run(pass *analysis.Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/obs") {
		return nil
	}
	registered := make(map[string]registration)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Package) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if arg, kind, ok := nameArg(pass, call); ok {
				checkName(pass, arg, kind, registered)
			}
			return true
		})
	}

	// Cross-package duplicates: a name some dependency already exported
	// under a *different* constant. Re-using the dependency's own
	// exported constant is the sanctioned sharing pattern and passes.
	depNames := make(map[string]string) // name → qualified defining const
	pass.AllPackageFacts(func(path string, fact analysis.Fact) {
		mf, ok := fact.(*MetricFact)
		if !ok {
			return
		}
		for name, qual := range mf.Names {
			if _, dup := depNames[name]; !dup {
				depNames[name] = qual
			}
		}
	})
	names := make([]string, 0, len(registered))
	for name := range registered {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		reg := registered[name]
		if prior, ok := depNames[name]; ok && prior != qualifiedConst(reg.obj) {
			pass.Reportf(reg.obj.Pos(),
				"metric name %q is already registered via %s; a name must be registered once — share that constant or rename", name, prior)
		}
	}

	if len(registered) > 0 {
		fact := &MetricFact{Names: make(map[string]string, len(registered))}
		for name, reg := range registered {
			fact.Names[name] = qualifiedConst(reg.obj)
		}
		if err := pass.ExportPackageFact(fact); err != nil {
			return err
		}
	}
	return nil
}

// qualifiedConst names a constant unambiguously across packages.
func qualifiedConst(obj *types.Const) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// nameKind says which half of the naming contract a call site's name
// argument must satisfy.
type nameKind int

const (
	kindFull        nameKind = iota // complete, package-prefixed series name
	kindSetPrefix                   // ChildSet family prefix: package-prefixed, ends "."
	kindChildSuffix                 // per-child suffix: dotted.snake, NO package prefix
)

// nameArg extracts the name argument of a checked registration call,
// or ok=false if call is not one.
func nameArg(pass *analysis.Pass, call *ast.CallExpr) (ast.Expr, nameKind, bool) {
	if isSpanStart(pass, call) {
		if len(call.Args) < 3 || isStageCategory(pass, call.Args[2]) {
			return nil, 0, false
		}
		return call.Args[1], kindFull, true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, 0, false
	}
	// Receiver type names distinguish the APIs, so fixtures can model
	// them without importing internal/obs.
	recv := func(name string) bool {
		tv, ok := pass.TypesInfo.Types[sel.X]
		return ok && isNamedType(tv.Type, name)
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram":
		if len(call.Args) >= 1 && recv("Registry") {
			return call.Args[0], kindFull, true
		}
	case "ChildSet":
		if len(call.Args) >= 1 && recv("Registry") {
			return call.Args[0], kindSetPrefix, true
		}
	case "Add", "Observe":
		if len(call.Args) >= 2 && recv("ChildSet") {
			return call.Args[1], kindChildSuffix, true
		}
	}
	return nil, 0, false
}

// isSpanStart reports whether call opens a span: a package-level
// function named Start or StartRequest whose results include a Span
// (obs.Start and obs.StartRequest, or a fixture's model of them).
func isSpanStart(pass *analysis.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return false
	}
	if id.Name != "Start" && id.Name != "StartRequest" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isNamedType(sig.Results().At(i).Type(), "Span") {
			return true
		}
	}
	return false
}

// isStageCategory reports whether a span's category argument is the
// constant "stage" — manifest stages, exempt from the span namespace.
func isStageCategory(pass *analysis.Pass, arg ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[arg]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.String &&
		constant.StringVal(tv.Value) == "stage"
}

func isNamedType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// rules holds, per nameKind, what the argument is called in
// diagnostics, the shape a plain constant must match, and whether its
// first segment must be the package namespace (full names and set
// prefixes) or must not repeat it (child suffixes — the set's prefix
// already carries it, and a repeat would render
// pkg.family.label.pkg.metric).
var rules = [...]struct {
	what, shape string
	re          *regexp.Regexp
	ownNS       bool
}{
	kindFull:        {"metric/span name", "package-prefixed dotted.snake", nameRE, true},
	kindSetPrefix:   {"child-set prefix", `dotted.snake ending in "."`, prefixRE, true},
	kindChildSuffix: {"child metric suffix", "dotted.snake", suffixRE, false},
}

// checkName validates one name argument and records full-name constant
// registrations for duplicate detection. Full names and child suffixes
// may also be dynamic — constPrefix + expr, validated on the prefix
// only — while a child-set prefix is always one constant.
func checkName(pass *analysis.Pass, arg ast.Expr, kind nameKind, registered map[string]registration) {
	r := rules[kind]
	if be, ok := arg.(*ast.BinaryExpr); ok && be.Op == token.ADD && kind != kindSetPrefix {
		left := be.X
		for {
			inner, ok := left.(*ast.BinaryExpr)
			if !ok || inner.Op != token.ADD {
				break
			}
			left = inner.X
		}
		obj := constOf(pass, left)
		if obj == nil {
			pass.Reportf(arg.Pos(),
				"dynamic %s must start with a named constant prefix ending in \".\"", r.what)
			return
		}
		val := constant.StringVal(obj.Val())
		if !prefixRE.MatchString(val) {
			pass.Reportf(arg.Pos(),
				"%s prefix %q must be dotted.snake ending in \".\"", r.what, val)
			return
		}
		checkNamespace(pass, arg, obj, val, r.ownNS)
		return
	}

	obj := constOf(pass, arg)
	if obj == nil {
		pass.Reportf(arg.Pos(),
			"%s must be a named constant, not an inline or computed string", r.what)
		return
	}
	val := constant.StringVal(obj.Val())
	if !r.re.MatchString(val) {
		pass.Reportf(arg.Pos(), "%s %q must be %s", r.what, val, r.shape)
		return
	}
	checkNamespace(pass, arg, obj, val, r.ownNS)
	if kind != kindFull {
		return
	}

	if prior, ok := registered[val]; ok {
		if prior.obj != obj {
			pass.Reportf(arg.Pos(),
				"metric name %q is also declared as %s; two constants with one name silently share a counter — use one constant", val, prior.desc)
		}
		return
	}
	pos := pass.Fset.Position(obj.Pos())
	registered[val] = registration{
		obj:  obj,
		desc: obj.Name() + " (" + pos.Filename + ":" + strconv.Itoa(pos.Line) + ")",
	}
}

// checkNamespace requires the name's first segment to be the defining
// package's name (own), so every package owns a distinct namespace — or,
// for a child suffix, requires that it is not.
func checkNamespace(pass *analysis.Pass, arg ast.Expr, obj *types.Const, val string, own bool) {
	pkg := obj.Pkg()
	if pkg == nil {
		pkg = pass.Pkg
	}
	ns := pathBase(pkg.Path())
	seg, _, _ := strings.Cut(val, ".")
	switch {
	case own && seg != ns:
		pass.Reportf(arg.Pos(),
			"metric name %q must be prefixed with its package's namespace %q", val, ns+".")
	case !own && seg == ns:
		pass.Reportf(arg.Pos(),
			"child metric suffix %q must not repeat the package namespace %q — the child set's prefix already carries it", val, ns+".")
	}
}

// constOf resolves arg to a named string constant, or nil.
func constOf(pass *analysis.Pass, arg ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := arg.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Const)
	if !ok || obj.Val() == nil || obj.Val().Kind() != constant.String {
		return nil
	}
	return obj
}

func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
