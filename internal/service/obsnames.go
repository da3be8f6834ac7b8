package service

// Observability names for the partition service, package-prefixed
// dotted.snake per the obsname registry convention. Every metric and
// span name the service registers is declared here exactly once; the
// per-route HTTP names are built from the "…Prefix" constants plus the
// route or error code.
const (
	// Admission control (admission.go).
	mAdmissionShed            = "service.admission.shed"
	mAdmissionDeadlineInQueue = "service.admission.deadline_in_queue"
	mAdmissionQueueDepth      = "service.admission.queue_depth"

	// Request-scoped trace spans (telemetry.go, service.go, admission.go):
	// the per-request span tree rooted at service.req, parented through
	// the request context so one plan request renders as one trace.
	spanReq          = "service.req"
	spanReqAdmission = "service.req.admission"
	spanReqQueue     = "service.req.queue"
	spanReqCurves    = "service.req.curves"
	spanReqSolve     = "service.req.solve"
	spanReqStore     = "service.req.store"

	// RED rollups (telemetry.go): every request once, plus one counter
	// per status class ("…by_class." + 2xx/3xx/4xx/5xx), with the two
	// deadline outcomes 499 and 504 split out (canceled = client went
	// away, deadline = the request's own budget expired).
	mRequests              = "service.requests"
	mRequestsByClassPrefix = "service.requests.by_class."
	mRequestsCanceled      = "service.requests.canceled"
	mRequestsDeadline      = "service.requests.deadline"

	// Per-tenant RED family (telemetry.go): a bounded child set under
	// this prefix; full series names are mTenantPrefix + tenant + "." +
	// one of the suffix families below + route/class.
	mTenantPrefix        = "service.tenant."
	tenantRequestsPrefix = "requests."
	tenantErrorsPrefix   = "errors."
	tenantLatencyPrefix  = "latency_ns."

	// HTTP surface (http.go). The prefixes end in "." and are completed
	// with the route name or error code at the call site.
	mHTTPErrorsPrefix   = "service.http.errors."
	mHTTPRequestsPrefix = "service.http.requests."
	mHTTPLatencyPrefix  = "service.http.latency_ns."
	mHTTPPanics         = "service.http.panics"

	// Server lifecycle (server.go).
	mDrains        = "service.drains"
	mDrainNS       = "service.drain_ns"
	mDrainTimeouts = "service.drain_timeouts"

	// Tenant registry and planning (service.go).
	mTenantsRegistered   = "service.tenants.registered"
	mTenantsUnregistered = "service.tenants.unregistered"
	mPlanRequests        = "service.plan.requests"
	mPlanLatencyNS       = "service.plan.latency_ns"
	mPlanDegradedServed  = "service.plan.degraded_served"

	// Plan lifecycle (service.go, audit.go, feed.go; DESIGN.md §16).
	// The epoch gauge and churn counters track the published plan as it
	// evolves; the delta prefix is a bounded per-tenant ChildSet whose
	// full names are mPlanDeltaPrefix + tenant + "." + the suffix below.
	mPlanEpoch           = "service.plan.epoch"
	mPlanUnitsMoved      = "service.plan.units_moved"
	mPlanDeltaPrefix     = "service.plan.delta."
	planDeltaUnitsSuffix = "moved_units"

	// Change feed (feed.go): wake-ups published and the live
	// subscriber gauge.
	mFeedEvents      = "service.feed.events"
	mFeedSubscribers = "service.feed.subscribers"

	// Epoch audit log (audit.go): mirrors the tenant-store trio plus the
	// append-side pair (appends are tolerated failures; the reopt loop
	// never blocks on them).
	mAuditAppended       = "service.audit.appended"
	mAuditAppendFailures = "service.audit.append_failures"
	mAuditReplayed       = "service.audit.replayed"
	mAuditTornRecovered  = "service.audit.torn_recovered"
	mAuditCompactions    = "service.audit.compactions"

	// Background re-optimization (service.go).
	spanReoptEpoch = "service.reopt.epoch"
	mReoptEpochs   = "service.reopt.epochs"
	mReoptFailures = "service.reopt.failures"
	mReoptRetries  = "service.reopt.retries"
	mReoptSolveNS  = "service.reopt.solve_ns"

	// Durable tenant store (store.go).
	mStoreReplayed      = "service.store.replayed"
	mStoreTornRecovered = "service.store.torn_recovered"
	mStoreCompactions   = "service.store.compactions"
)
