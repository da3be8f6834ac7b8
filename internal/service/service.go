package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"partitionshare/internal/faultinject"
	"partitionshare/internal/mrc"
	"partitionshare/internal/obs"
	"partitionshare/internal/partition"
	"partitionshare/internal/profileio"
)

// Fault points in the solve paths.
const (
	// FaultSolve fires at the head of every ad-hoc plan solve (after
	// admission); a Delay rule simulates a slow solve, an error rule a
	// failing one.
	FaultSolve = "service.solve"
	// FaultReopt fires at the head of every background re-optimization
	// attempt; error rules with a Count window simulate transient
	// failures (driving the retry path), unbounded ones a persistent
	// outage (driving degraded mode).
	FaultReopt = "service.reopt"
)

// ErrNoPlan reports that no background plan has been published yet —
// either no tenants are registered or the first epoch has not finished.
var ErrNoPlan = errors.New("service: no plan published yet")

// Config parameterizes a Service. The zero value is not usable; fill in
// at least Units and BlocksPerUnit or use DefaultConfig.
type Config struct {
	// Units is the cache size in partition units for the shared plan and
	// the default geometry for ad-hoc requests.
	Units int
	// BlocksPerUnit scales footprint blocks to partition units.
	BlocksPerUnit int64
	// MaxInflight bounds concurrent solves; QueueDepth bounds how many
	// more may wait for a slot before requests shed with ErrOverloaded.
	MaxInflight int
	QueueDepth  int
	// DefaultDeadline applies to ad-hoc plan requests whose context has
	// no deadline; ReoptDeadline bounds each background epoch attempt.
	DefaultDeadline time.Duration
	ReoptDeadline   time.Duration
	// RetryMax is how many times a failed epoch re-optimization retries
	// (with exponential backoff from RetryBase, jittered) before the
	// service enters degraded mode and keeps serving the last good plan.
	RetryMax  int
	RetryBase time.Duration
	// TenantSeriesCap bounds the live per-tenant metric label set
	// (telemetry.go); tenants beyond it fold into the "other" overflow
	// series. Non-positive means the obs default.
	TenantSeriesCap int
	// FeedBuffer bounds each change-feed subscriber's pending-record
	// buffer; a subscriber further behind than this loses its oldest
	// records and sees a gap marker (feed.go). Non-positive means the
	// default.
	FeedBuffer int
	// AuditRetain bounds how many epoch records the audit log keeps.
	// Non-positive means the default (audit.go).
	AuditRetain int
	// Seed makes the backoff jitter deterministic for tests.
	Seed uint64
}

// DefaultConfig mirrors cmd/optpart's geometry so daemon plans are
// directly comparable to offline solves.
func DefaultConfig() Config {
	return Config{
		Units:           1024,
		BlocksPerUnit:   4,
		MaxInflight:     8,
		QueueDepth:      64,
		DefaultDeadline: 2 * time.Second,
		ReoptDeadline:   10 * time.Second,
		RetryMax:        3,
		RetryBase:       50 * time.Millisecond,
		TenantSeriesCap: obs.DefaultChildSetCap,
		FeedBuffer:      defaultFeedBuffer,
		AuditRetain:     defaultAuditRetain,
		Seed:            1,
	}
}

func (c *Config) normalize() {
	d := DefaultConfig()
	if c.Units <= 0 {
		c.Units = d.Units
	}
	if c.BlocksPerUnit <= 0 {
		c.BlocksPerUnit = d.BlocksPerUnit
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = d.MaxInflight
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = d.DefaultDeadline
	}
	if c.ReoptDeadline <= 0 {
		c.ReoptDeadline = d.ReoptDeadline
	}
	if c.RetryMax < 0 {
		c.RetryMax = d.RetryMax
	}
	if c.RetryBase <= 0 {
		c.RetryBase = d.RetryBase
	}
	if c.TenantSeriesCap <= 0 {
		c.TenantSeriesCap = d.TenantSeriesCap
	}
	if c.FeedBuffer <= 0 {
		c.FeedBuffer = d.FeedBuffer
	}
	if c.AuditRetain <= 0 {
		c.AuditRetain = d.AuditRetain
	}
}

// A Plan is a served partition decision: the co-run group, the optimal
// allocation, and its objective, all bit-exact with what
// ReferenceOptimize of the same group computes (the differential tests
// pin this for fresh and degraded-stale plans alike).
type Plan struct {
	Epoch          int64     `json:"epoch"`
	Tenants        []string  `json:"tenants"`
	Units          int       `json:"units"`
	Alloc          []int     `json:"alloc"`
	Objective      float64   `json:"objective"`
	GroupMissRatio float64   `json:"group_miss_ratio"`
	MissRatios     []float64 `json:"miss_ratios"`
	SolverPath     string    `json:"solver_path,omitempty"`
	// Provenance records where this plan came from: the input digest,
	// solver path, compute duration, triggering cause, and trace
	// (provenance.go). Every served plan carries one.
	Provenance *PlanProvenance `json:"provenance,omitempty"`
	// Degraded marks a plan served while it no longer reflects the
	// current tenant set — background re-optimization is failing or has
	// not caught up. The allocation is still the exact optimum for the
	// group listed in Tenants.
	Degraded bool `json:"degraded"`
}

// A Service owns the tenant registry, serves plan queries under
// admission control with deadline propagation, and re-optimizes the
// shared plan in the background as tenants churn, one solver-ladder
// solve per epoch. Construct with New, then Start the background loop.
type Service struct {
	cfg     Config
	store   *Store
	limiter *Limiter

	// audit is the durable epoch record (audit.go); feed fans epoch
	// events out to /v1/plan/changes subscribers (feed.go).
	audit *AuditLog
	feed  *ChangeFeed

	mu         sync.Mutex
	inputs     map[string]tenantInput // derived at cfg geometry
	order      []string               // registration order: the epoch group's tenant order
	churnTrace string                 // trace ID of the last churn request, for epoch provenance

	rng *rand.Rand // owned by the reopt goroutine exclusively

	plan     atomic.Pointer[Plan]
	epoch    atomic.Int64
	degraded atomic.Bool
	draining atomic.Bool

	churn   chan struct{}
	stopped chan struct{}
	started atomic.Bool
}

// New builds a Service over an opened store, deriving curves for every
// already-registered tenant at the configured geometry. The epoch audit
// log opens in the store's directory, and the epoch counter resumes
// from its last recorded epoch, so epochs are monotonic across daemon
// restarts, not just within one process.
func New(cfg Config, store *Store) (*Service, error) {
	cfg.normalize()
	audit, err := OpenAuditLog(store.Dir(), cfg.AuditRetain, 0)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		store:   store,
		limiter: NewLimiter(cfg.MaxInflight, cfg.QueueDepth),
		audit:   audit,
		feed:    NewChangeFeed(cfg.FeedBuffer),
		inputs:  make(map[string]tenantInput),
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15)),
		churn:   make(chan struct{}, 1),
		stopped: make(chan struct{}),
	}
	s.epoch.Store(audit.LastEpoch())
	obs.Enabled().Gauge(mPlanEpoch).Set(audit.LastEpoch())
	for _, name := range store.Names() {
		p, err := store.Get(name)
		if err != nil {
			return nil, err
		}
		s.inputs[name] = s.deriveInput(name, p, cfg.Units)
		s.order = append(s.order, name)
	}
	return s, nil
}

// Audit returns the service's epoch audit log.
func (s *Service) Audit() *AuditLog { return s.audit }

// Close releases the service's plan-lifecycle resources: the change
// feed shuts down (waking every subscriber) and the audit journal
// closes. The tenant store is the caller's to close; Close does not
// stop the background loop (cancel its context first).
func (s *Service) Close() error {
	s.feed.Close()
	return s.audit.Close()
}

// A tenantInput is one tenant's solve input at some geometry: its curve
// and the curve's tenantDigest, computed together so a plan's input
// digest never re-hashes a curve.
type tenantInput struct {
	curve  mrc.Curve
	digest tenantDigest
}

func (s *Service) deriveInput(name string, p profileio.Profile, units int) tenantInput {
	c := mrc.FromFootprint(name, p.Footprint(), units, s.cfg.BlocksPerUnit, p.Rate)
	// Weight the program by its access rate, exactly as cmd/optpart does:
	// the group objective weighs programs by Accesses, so the scaling must
	// match for daemon-served and offline plans to agree bit-for-bit.
	c.Accesses = int64(float64(c.Accesses) * p.Rate)
	return tenantInput{curve: c, digest: sha256.Sum256(appendTenantInput(nil, name, c))}
}

// Config returns the service's normalized configuration.
func (s *Service) Config() Config { return s.cfg }

// Start launches the background re-optimization loop; it runs until ctx
// is cancelled. Safe to call once.
func (s *Service) Start(ctx context.Context) {
	if s.started.Swap(true) {
		return
	}
	go s.reoptLoop(ctx)
	if s.tenantCount() > 0 {
		s.signalChurn()
	}
}

// Stopped is closed when the background loop has exited.
func (s *Service) Stopped() <-chan struct{} { return s.stopped }

// SetDraining flips drain mode: new work is refused with ErrDraining
// while in-flight requests run to completion.
func (s *Service) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether the service refuses new work.
func (s *Service) Draining() bool { return s.draining.Load() }

// Degraded reports whether background re-optimization is failing and
// the published plan may be stale.
func (s *Service) Degraded() bool { return s.degraded.Load() }

// Register adds or replaces a tenant durably and schedules a background
// re-optimization. The store append runs under a service.req.store span
// when ctx carries a request trace (nil ctx is fine for direct callers).
func (s *Service) Register(ctx context.Context, name string, p profileio.Profile) error {
	if s.draining.Load() {
		return ErrDraining
	}
	_, span := obs.Start(ctx, spanReqStore, "service")
	err := s.store.Put(name, p)
	span.End()
	if err != nil {
		return err
	}
	s.mu.Lock()
	if _, known := s.inputs[name]; !known {
		s.order = append(s.order, name)
	}
	s.inputs[name] = s.deriveInput(name, p, s.cfg.Units)
	s.noteChurnTraceLocked(ctx)
	s.mu.Unlock()
	obs.Enabled().Counter(mTenantsRegistered).Add(1)
	s.signalChurn()
	return nil
}

// noteChurnTraceLocked remembers the triggering request's trace ID so
// the next epoch's provenance can point back at it. Later churn before
// the solve starts overwrites it — coalesced churn is attributed to its
// last trigger, matching the coalesced churn signal itself.
func (s *Service) noteChurnTraceLocked(ctx context.Context) {
	if tid := obs.TraceIDFrom(ctx); tid != "" {
		s.churnTrace = tid
	}
}

// takeChurnTrace consumes the pending churn trace ID.
func (s *Service) takeChurnTrace() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	tid := s.churnTrace
	s.churnTrace = ""
	return tid
}

// Unregister removes a tenant durably and schedules a background
// re-optimization. Like Register, the store mutation is traced as a
// service.req.store stage when ctx carries a request trace.
func (s *Service) Unregister(ctx context.Context, name string) error {
	if s.draining.Load() {
		return ErrDraining
	}
	_, span := obs.Start(ctx, spanReqStore, "service")
	err := s.store.Delete(name)
	span.End()
	if err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.inputs, name)
	for i, n := range s.order {
		if n == name {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.noteChurnTraceLocked(ctx)
	s.mu.Unlock()
	obs.Enabled().Counter(mTenantsUnregistered).Add(1)
	s.signalChurn()
	return nil
}

// Tenants returns the registered tenant names, sorted.
func (s *Service) Tenants() []string { return s.store.Names() }

func (s *Service) tenantCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// CurveFor derives the named tenant's miss-ratio curve at the requested
// cache size (units <= 0 uses the configured default).
func (s *Service) CurveFor(name string, units int) (mrc.Curve, error) {
	if units <= 0 {
		units = s.cfg.Units
	}
	in, err := s.inputFor(name, units)
	return in.curve, err
}

// inputFor returns the named tenant's solve input at units: the cached
// one at the configured geometry, otherwise derived (and digested) on
// demand from the stored profile.
func (s *Service) inputFor(name string, units int) (tenantInput, error) {
	if units == s.cfg.Units {
		s.mu.Lock()
		in, ok := s.inputs[name]
		s.mu.Unlock()
		if ok {
			return in, nil
		}
	}
	p, err := s.store.Get(name)
	if err != nil {
		return tenantInput{}, err
	}
	return s.deriveInput(name, p, units), nil
}

// PlanFor solves the optimal partition for an ad-hoc co-run group under
// admission control, with the request context's deadline propagated
// into the DP (a context with no deadline gets the configured default).
// Unknown tenants fail with ErrTenantNotFound; overload with
// ErrOverloaded; an expired deadline surfaces context.DeadlineExceeded
// via errors.Is.
func (s *Service) PlanFor(ctx context.Context, names []string, units int) (Plan, error) {
	if s.draining.Load() {
		return Plan{}, ErrDraining
	}
	if len(names) == 0 {
		return Plan{}, fmt.Errorf("service: empty tenant group")
	}
	if units <= 0 {
		units = s.cfg.Units
	}
	if _, has := ctx.Deadline(); !has {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
		defer cancel()
	}
	start := time.Now()
	actx, admission := obs.Start(ctx, spanReqAdmission, "service")
	err := s.limiter.Acquire(actx)
	admission.End()
	if err != nil {
		return Plan{}, err
	}
	defer s.limiter.Release()

	_, curvesSpan := obs.Start(ctx, spanReqCurves, "service")
	curves := make([]mrc.Curve, len(names))
	digests := make([]tenantDigest, len(names))
	for i, n := range names {
		in, err := s.inputFor(n, units)
		if err != nil {
			curvesSpan.End()
			return Plan{}, err
		}
		curves[i], digests[i] = in.curve, in.digest
	}
	curvesSpan.End()
	sctx, solve := obs.Start(ctx, spanReqSolve, "service")
	defer solve.End()
	if err := faultinject.Hit(FaultSolve); err != nil {
		return Plan{}, fmt.Errorf("service: solve: %w", err)
	}
	if err := sctx.Err(); err != nil {
		return Plan{}, fmt.Errorf("service: solve: %w", err)
	}
	plan, err := solvePlan(sctx, names, curves, digests, units)
	if err != nil {
		return Plan{}, err
	}
	reg := obs.Enabled()
	reg.Counter(mPlanRequests).Add(1)
	reg.Histogram(mPlanLatencyNS, obs.DurationBuckets()).Observe(time.Since(start).Nanoseconds())
	plan.stamp(-1, CauseAdHoc, obs.TraceIDFrom(ctx)) // ad-hoc, not an epoch plan
	return *plan, nil
}

// solvePlan is the one solve every plan comes from: the solver ladder,
// bit-exact with ReferenceOptimize, cancellable — the solver polls ctx
// between DP rounds, so the caller's deadline reaches every solve. digests are the curves' tenant digests,
// parallel to names. Callers stamp the result.
func solvePlan(ctx context.Context, names []string, curves []mrc.Curve, digests []tenantDigest, units int) (*Plan, error) {
	start := time.Now()
	sol, err := partition.OptimizeContext(ctx, partition.Problem{Curves: curves, Units: units})
	if err != nil {
		return nil, err
	}
	computeNS := time.Since(start).Nanoseconds()
	return &Plan{
		Tenants:        append([]string(nil), names...),
		Units:          units,
		Alloc:          append([]int(nil), sol.Alloc...),
		Objective:      sol.Objective,
		GroupMissRatio: sol.GroupMissRatio,
		MissRatios:     append([]float64(nil), sol.MissRatios...),
		SolverPath:     sol.SolverPath,
		Provenance: &PlanProvenance{
			InputDigest: inputDigest(units, digests),
			SolverPath:  sol.SolverPath,
			ComputeNS:   computeNS,
		},
	}, nil
}

// stamp fills in what is known only once a solved plan is served: its
// epoch (-1 for ad-hoc plans), cause, triggering trace, and time.
func (p *Plan) stamp(epoch int64, cause, traceID string) {
	p.Epoch = epoch
	pv := p.Provenance
	pv.Epoch, pv.Cause, pv.TraceID, pv.UnixNS = epoch, cause, traceID, time.Now().UnixNano()
}

// CurrentPlan returns the latest background epoch plan. ok=false means
// none has been published yet. The Degraded flag is recomputed at read
// time: it is set when re-optimization is failing or when the plan's
// tenant set no longer matches the registry (the plan is then the last
// good one — still exact for the group it lists).
func (s *Service) CurrentPlan() (Plan, bool) {
	p := s.plan.Load()
	if p == nil {
		return Plan{}, false
	}
	out := *p
	out.Degraded = s.degraded.Load() || !s.groupCurrent(p.Tenants)
	if out.Degraded {
		obs.Enabled().Counter(mPlanDegradedServed).Add(1)
	}
	return out, true
}

func (s *Service) groupCurrent(tenants []string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(tenants) != len(s.order) {
		return false
	}
	for i, n := range s.order {
		if tenants[i] != n {
			return false
		}
	}
	return true
}

func (s *Service) signalChurn() {
	select {
	case s.churn <- struct{}{}:
	default:
	}
}

// snapshotGroup copies the current co-run group in registration order,
// with each tenant's curve and digest.
func (s *Service) snapshotGroup() ([]string, []mrc.Curve, []tenantDigest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := append([]string(nil), s.order...)
	curves := make([]mrc.Curve, len(names))
	digests := make([]tenantDigest, len(names))
	for i, n := range names {
		in := s.inputs[n]
		curves[i], digests[i] = in.curve, in.digest
	}
	return names, curves, digests
}

func (s *Service) reoptLoop(ctx context.Context) {
	defer close(s.stopped)
	ctx = obs.WithTraceLane(ctx, 7) // dedicated lane for epoch spans
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.churn:
		}
		s.reoptimize(ctx)
	}
}

// reoptimize runs one epoch: solve the full registered group, retrying
// transient failures with jittered exponential backoff, and publish the
// result. Exhausted retries flip degraded mode — the last good plan
// keeps being served — until a later epoch succeeds.
func (s *Service) reoptimize(ctx context.Context) {
	reg := obs.Enabled()
	for attempt := 0; ; attempt++ {
		names, curves, digests := s.snapshotGroup()
		if len(curves) == 0 {
			s.retireEpoch()
			return
		}
		plan, err := s.solveEpoch(ctx, names, curves, digests)
		if err == nil {
			s.publishEpoch(plan)
			reg.Counter(mReoptEpochs).Add(1)
			return
		}
		if ctx.Err() != nil {
			return // shutting down; not a degradation
		}
		if attempt >= s.cfg.RetryMax {
			s.degraded.Store(true)
			reg.Counter(mReoptFailures).Add(1)
			obs.Logger().Warn("re-optimization failed; serving last good plan",
				"attempts", attempt+1, "err", err)
			return
		}
		reg.Counter(mReoptRetries).Add(1)
		if !s.sleepBackoff(ctx, attempt) {
			return
		}
	}
}

// publishEpoch stamps the solved plan with its epoch number and full
// provenance, diffs it against the previous published plan, and records
// the transition in the audit log before it stores the plan, so a reader
// that sees epoch N on /v1/plan finds it in /v1/plan/history too. Churn
// metrics and the change feed follow. Runs only on the reopt goroutine.
func (s *Service) publishEpoch(plan *Plan) {
	prev := s.plan.Load()
	cause := CauseChurn
	if s.degraded.Load() {
		cause = CauseRecovery
	}
	plan.stamp(s.epoch.Add(1), cause, s.takeChurnTrace())
	diff := ComputePlanDiff(prev, plan)
	rec := EpochRecord{
		Provenance: *plan.Provenance,
		Diff:       diff,
		Tenants:    plan.Tenants,
		Alloc:      plan.Alloc,
		Units:      plan.Units,
	}
	s.auditAppend(rec)

	// Gauge first: a reader that sees the new plan never sees an older epoch.
	reg := obs.Enabled()
	reg.Gauge(mPlanEpoch).Set(plan.Epoch)
	s.plan.Store(plan)
	s.degraded.Store(false)

	reg.Counter(mPlanUnitsMoved).Add(int64(diff.UnitsMoved))
	cs := reg.ChildSet(mPlanDeltaPrefix, s.cfg.TenantSeriesCap)
	for _, td := range diff.Deltas {
		if td.DeltaUnits != 0 {
			cs.Add(td.Tenant, planDeltaUnitsSuffix, int64(abs(td.DeltaUnits)))
		}
	}
	s.feed.Publish(rec)
}

// retireEpoch handles the group emptying: the published plan is
// withdrawn, and — when there was one — the withdrawal is itself an
// audited, fed epoch transition (every tenant lost), so subscribers see
// the group end rather than silence. As in publishEpoch, the audit
// record is written before the plan is withdrawn.
func (s *Service) retireEpoch() {
	prev := s.plan.Load()
	s.degraded.Store(false)
	if prev == nil {
		return
	}
	epoch := s.epoch.Add(1)
	diff := ComputePlanDiff(prev, nil)
	diff.ToEpoch = epoch
	rec := EpochRecord{
		Provenance: PlanProvenance{
			Epoch:       epoch,
			Cause:       CauseChurn,
			InputDigest: inputDigest(s.cfg.Units, nil),
			TraceID:     s.takeChurnTrace(),
			UnixNS:      time.Now().UnixNano(),
		},
		Diff:  diff,
		Units: s.cfg.Units,
	}
	s.auditAppend(rec)
	s.plan.Store(nil)
	obs.Enabled().Gauge(mPlanEpoch).Set(epoch)
	s.feed.Publish(rec)
}

// auditAppend records one epoch transition, tolerating failure: a
// broken audit disk must never stall or fail re-optimization, so errors
// are counted and logged, not propagated.
func (s *Service) auditAppend(rec EpochRecord) {
	if err := s.audit.Append(rec); err != nil {
		obs.Enabled().Counter(mAuditAppendFailures).Add(1)
		obs.Logger().Warn("epoch audit append failed", "epoch", rec.Provenance.Epoch, "err", err)
	}
}

// sleepBackoff waits RetryBase<<attempt plus up to 50% deterministic
// jitter, or until ctx cancels (returning false).
func (s *Service) sleepBackoff(ctx context.Context, attempt int) bool {
	d := s.cfg.RetryBase << uint(attempt)
	d += time.Duration(s.rng.Int64N(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// solveEpoch solves the full group under the epoch deadline;
// publishEpoch stamps the result.
func (s *Service) solveEpoch(ctx context.Context, names []string, curves []mrc.Curve, digests []tenantDigest) (*Plan, error) {
	dctx, cancel := context.WithTimeout(ctx, s.cfg.ReoptDeadline)
	defer cancel()
	sctx, span := obs.Start(dctx, spanReoptEpoch, "service")
	defer span.End()
	if err := faultinject.Hit(FaultReopt); err != nil {
		return nil, fmt.Errorf("service: reopt: %w", err)
	}
	if err := sctx.Err(); err != nil {
		return nil, fmt.Errorf("service: reopt: %w", err)
	}
	plan, err := solvePlan(sctx, names, curves, digests, s.cfg.Units)
	if err != nil {
		return nil, err
	}
	obs.Enabled().Histogram(mReoptSolveNS, obs.DurationBuckets()).Observe(plan.Provenance.ComputeNS)
	return plan, nil
}
