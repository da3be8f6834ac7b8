// Fixture: metric/span names must be package-prefixed dotted.snake
// named constants registered once. The Registry and ChildSet types and
// the Start/StartRequest span constructors model internal/obs's surface
// by shape (the source importer cannot load other fixture packages). The inline-literal and legacy
// underscore cases reproduce real pre-PR8 violations: internal/service
// passed "service.plan.requests" inline, and internal/partition used
// undotted names like "partition_solves_total".
package obsnames

import "context"

type Registry struct{}

type Metric struct{}

func (r *Registry) Counter(name string) *Metric   { return nil }
func (r *Registry) Gauge(name string) *Metric     { return nil }
func (r *Registry) Histogram(name string) *Metric { return nil }

// ChildSet models the bounded per-label family API: the set's prefix
// carries the package namespace, each update completes a series as
// prefix + label + "." + suffix.
type ChildSet struct{}

func (r *Registry) ChildSet(prefix string, capacity int) *ChildSet         { return nil }
func (cs *ChildSet) Add(label, suffix string, n int64)                     {}
func (cs *ChildSet) Observe(label, suffix string, bounds []int64, v int64) {}

// Span, Start, and StartRequest model the one span entry point; spans
// in the "stage" category name manifest stages and are exempt.
type Span struct{}

type TraceContext struct{}

const CatStage = "stage"

func Start(ctx context.Context, name, cat string) (context.Context, *Span) { return ctx, nil }
func StartRequest(ctx context.Context, name, cat string, tc TraceContext) (context.Context, *Span) {
	return ctx, nil
}

const (
	mSolves     = "obsnames.solves"
	mSolvesDup  = "obsnames.solves" // second constant, same name: flagged at use
	mBadCase    = "ObsNames.Bad"
	mOtherNS    = "other.solves"
	mLegacy     = "obsnames_solves_total" // undotted legacy shape (pre-PR8 partition counters)
	mHTTPPrefix = "obsnames.http.errors."
	mBadPrefix  = "obsnames.http_errors" // prefix must end in "."
	sSpan       = "obsnames.profile"
	sReq        = "obsnames.req"

	// Child-set constants: the set prefix is package-prefixed; the
	// per-child suffixes deliberately are not (the prefix carries the
	// namespace once).
	mTenantPrefix    = "obsnames.tenant."
	mTenantOtherNS   = "other.tenant."
	suffixRequests   = "requests"
	suffixReqPrefix  = "requests."
	suffixLatency    = "latency_ns.plan"
	suffixBadCase    = "Requests"
	suffixBadPrefix  = "requests_by"       // dynamic form must end in "."
	suffixPkgDoubled = "obsnames.requests" // would render obsnames.tenant.X.obsnames.requests

	// Plan-lifecycle shapes (PR10): an epoch gauge, a churn counter, a
	// per-tenant delta child set, and the flagged variants of each — a
	// delta prefix missing its trailing dot and an epoch gauge named in
	// the legacy underscore style.
	mPlanEpoch       = "obsnames.plan.epoch"
	mPlanUnitsMoved  = "obsnames.plan.units_moved"
	mPlanDeltaPrefix = "obsnames.plan.delta."
	suffixDeltaUnits = "moved_units"
	mPlanDeltaNoDot  = "obsnames.plan.delta"       // prefix must end in "."
	mPlanEpochLegacy = "obsnames_plan_epoch_total" // undotted legacy shape
)

var reg Registry

func Good(ctx context.Context, code string) {
	reg.Counter(mSolves)
	reg.Counter(mSolves) // same constant again: one registration, fine
	reg.Histogram(mHTTPPrefix + code)
	ctx, _ = StartRequest(ctx, sReq, "pipeline", TraceContext{})
	Start(ctx, sSpan, "pipeline")
	Start(ctx, "profile", CatStage) // manifest stage: exempt by category
	Start(ctx, "sweep", "stage")
}

func GoodChildren(label, route string) {
	cs := reg.ChildSet(mTenantPrefix, 64)
	cs.Add(label, suffixRequests, 1)
	cs.Add(label, suffixReqPrefix+route, 1) // dynamic suffix: const prefix + expr
	cs.Observe(label, suffixLatency, nil, 1)
}

func GoodPlanLifecycle(tenant string) {
	reg.Gauge(mPlanEpoch)
	reg.Counter(mPlanUnitsMoved)
	reg.ChildSet(mPlanDeltaPrefix, 64).Add(tenant, suffixDeltaUnits, 1)
}

func BadPlanLifecycle(tenant string) {
	reg.Counter(mPlanEpochLegacy)     // want `dotted.snake`
	reg.ChildSet(mPlanDeltaNoDot, 64) // want `ending in`
	reg.ChildSet("other.plan.", 64)   // want `named constant`
}

func Bad(ctx context.Context, code string) {
	reg.Counter("obsnames.plan.requests")                     // want `named constant`
	reg.Gauge(mBadCase)                                       // want `dotted.snake`
	reg.Counter(mLegacy)                                      // want `dotted.snake`
	reg.Histogram(mOtherNS)                                   // want `namespace`
	reg.Counter(mSolvesDup)                                   // want `use one constant`
	reg.Counter(mBadPrefix + code)                            // want `ending in`
	Start(ctx, "obsnames.span", "line")                       // want `named constant`
	StartRequest(ctx, "obsnames.req", "line", TraceContext{}) // want `named constant`
	Start(ctx, mOtherNS, "line")                              // want `namespace`
}

func BadChildren(label, route string) {
	reg.ChildSet("obsnames.tenant.", 64) // want `named constant`
	reg.ChildSet(mBadPrefix, 64)         // want `ending in`
	reg.ChildSet(mTenantOtherNS, 64)     // want `namespace`
	cs := reg.ChildSet(mTenantPrefix, 64)
	cs.Add(label, "requests", 1)             // want `named constant`
	cs.Add(label, suffixBadCase, 1)          // want `dotted.snake`
	cs.Add(label, suffixBadPrefix+route, 1)  // want `ending in`
	cs.Add(label, suffixPkgDoubled, 1)       // want `must not repeat the package namespace`
	cs.Observe(label, suffixBadCase, nil, 1) // want `dotted.snake`
}

// Suppressed carries a name through a parameter — not provable as a
// constant, so it needs an explained suppression (the simSpan shape in
// internal/cachesim).
func Suppressed(name string) {
	reg.Counter(name) //vetkit:ignore(obsname): name is forwarded from per-simulator constants
}
