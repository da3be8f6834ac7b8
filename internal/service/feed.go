package service

import (
	"context"
	"errors"
	"sync"

	"partitionshare/internal/obs"
)

// The plan change feed: the wake-up half of GET /v1/plan/changes. The
// reopt loop publishes each epoch after its audit append; a publish
// carries no record, it only wakes every waiting subscriber, which then
// reads the audit log. The audit log is therefore the one event source
// for long-poll and SSE alike: every audited epoch reaches a subscriber
// as an event, and every hole in its history (retention, or an audit
// append that failed) as a gap. Publish never blocks and holds nothing
// per subscriber, so no consumer can back-pressure re-optimization.

// ErrFeedClosed reports a wait on a change feed that has shut down
// (service drain); subscribers should end their streams.
var ErrFeedClosed = errors.New("service: change feed closed")

// A ChangeFeed is a wake-only broadcast: each Publish closes the current
// wake channel and installs a fresh one. Construct with NewChangeFeed;
// safe for concurrent use.
type ChangeFeed struct {
	mu     sync.Mutex
	wake   chan struct{} // closed by the next Publish, or by Close
	closed bool
	subs   int
}

// NewChangeFeed returns an open feed.
//
// Deprecated: the argument is ignored (subscribers hold no buffer since
// the feed became wake-only); it remains for existing callers.
func NewChangeFeed(int) *ChangeFeed {
	return &ChangeFeed{wake: make(chan struct{})}
}

// Publish wakes every subscriber waiting for the next epoch. rec is not
// delivered: subscribers read the audit log, which publishEpoch appends
// to first. Never blocks; publishing on a closed feed is a no-op.
func (f *ChangeFeed) Publish(rec EpochRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	obs.Enabled().Counter(mFeedEvents).Add(1)
	close(f.wake)
	f.wake = make(chan struct{})
}

// Subscribe captures the current wake channel: a Publish from now on
// wakes the subscriber's next Wait. Subscribe before reading history, so
// no epoch lands unseen between the two. Callers must Close it.
func (f *ChangeFeed) Subscribe() *FeedSub {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.countSubs(1)
	return &FeedSub{feed: f, wake: f.wake}
}

// countSubs moves the subscriber count and its gauge by d; f.mu is held.
func (f *ChangeFeed) countSubs(d int) {
	f.subs += d
	obs.Enabled().Gauge(mFeedSubscribers).Set(int64(f.subs))
}

// Close shuts the feed down: every Wait returns ErrFeedClosed, after
// first reporting a publish it had not yet seen, and later publishes are
// dropped. Idempotent.
func (f *ChangeFeed) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		f.closed = true
		close(f.wake) // never replaced: it stays closed
	}
}

// A FeedSub is one subscriber's position in the feed: the wake channel
// it last saw. One goroutine per subscription.
type FeedSub struct {
	feed *ChangeFeed
	wake chan struct{}
}

// Wait blocks until a publish the subscriber has not yet seen (nil), ctx
// ends (ctx.Err()), or the feed shuts down (ErrFeedClosed). A nil return
// is only a hint that history may hold something new.
func (s *FeedSub) Wait(ctx context.Context) error {
	select {
	case <-s.wake:
	case <-ctx.Done():
		return ctx.Err()
	}
	f := s.feed
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.wake == f.wake { // woken by Close, not by a publish
		return ErrFeedClosed
	}
	s.wake = f.wake
	return nil
}

// Close unsubscribes. Idempotent.
func (s *FeedSub) Close() {
	s.feed.mu.Lock()
	defer s.feed.mu.Unlock()
	if s.wake != nil {
		s.wake = nil
		s.feed.countSubs(-1)
	}
}
