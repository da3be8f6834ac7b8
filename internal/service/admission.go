package service

import (
	"context"
	"errors"
	"fmt"

	"partitionshare/internal/obs"
)

// Admission errors; the HTTP layer maps them to typed 429/503 responses.
var (
	// ErrOverloaded reports that the solve queue is full: the request was
	// shed without doing any work. Clients should back off and retry.
	ErrOverloaded = errors.New("service: overloaded")
	// ErrDraining reports that the service is shutting down and admits no
	// new work; in-flight requests are unaffected.
	ErrDraining = errors.New("service: draining")
)

// A Limiter bounds concurrent solves and the queue behind them. Up to
// inflight requests run at once; up to queue more wait for a slot; the
// rest are shed immediately with ErrOverloaded. Shedding at the door
// instead of queueing unboundedly is what keeps p99 bounded under
// overload — a request that cannot start before its deadline is cheaper
// to reject in O(1) than to time out after holding memory.
type Limiter struct {
	slots chan struct{}
	queue chan struct{}
}

// NewLimiter builds a limiter admitting inflight concurrent holders and
// queue waiters. Non-positive values fall back to 1 and 0.
func NewLimiter(inflight, queue int) *Limiter {
	if inflight < 1 {
		inflight = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &Limiter{
		slots: make(chan struct{}, inflight),
		queue: make(chan struct{}, queue),
	}
}

// Acquire admits the caller or sheds it. On nil return the caller holds
// a slot and must Release. ErrOverloaded means the queue was already
// full; a context error means the caller's deadline expired while
// queued (both without acquiring anything). The slow path records the
// wait as a service.req.queue span (carrying the queue depth at entry)
// and reports the admission outcome into the request's telemetry.
func (l *Limiter) Acquire(ctx context.Context) error {
	// Fast path: a free slot admits without touching the queue.
	select {
	case l.slots <- struct{}{}:
		obs.RequestFrom(ctx).SetOutcome(outcomeAdmitted)
		return nil
	default:
	}
	// Entering the queue is itself bounded: if the queue is full the
	// request sheds in O(1) without blocking.
	reg := obs.Enabled()
	select {
	case l.queue <- struct{}{}:
	default:
		reg.Counter(mAdmissionShed).Add(1)
		obs.RequestFrom(ctx).SetOutcome(outcomeShed)
		return ErrOverloaded
	}
	depth := int64(len(l.queue))
	reg.Gauge(mAdmissionQueueDepth).Set(depth)
	_, span := obs.Start(ctx, spanReqQueue, "service")
	span.Arg("depth", depth)
	defer func() {
		span.End()
		<-l.queue
		reg.Gauge(mAdmissionQueueDepth).Set(int64(len(l.queue)))
	}()
	select {
	case l.slots <- struct{}{}:
		obs.RequestFrom(ctx).SetOutcome(outcomeQueued)
		return nil
	case <-ctx.Done():
		reg.Counter(mAdmissionDeadlineInQueue).Add(1)
		obs.RequestFrom(ctx).SetOutcome(outcomeDeadlineInQueue)
		return fmt.Errorf("service: queued past deadline: %w", ctx.Err())
	}
}

// Release returns a slot acquired by Acquire.
func (l *Limiter) Release() { <-l.slots }

// Inflight returns how many slots are currently held.
func (l *Limiter) Inflight() int { return len(l.slots) }
