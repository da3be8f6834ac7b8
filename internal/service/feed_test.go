package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func feedRecord(epoch int64) EpochRecord {
	return EpochRecord{Provenance: PlanProvenance{Epoch: epoch, Cause: CauseChurn}}
}

// waitReturns runs sub.Wait under a 2 s bound and returns its error.
func waitReturns(t *testing.T, sub *FeedSub) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return sub.Wait(ctx)
}

// TestFeedWakesOnPublish: a publish after Subscribe wakes the next Wait,
// however many publishes it folds together, and a Wait after that one
// blocks until the next publish.
func TestFeedWakesOnPublish(t *testing.T) {
	f := NewChangeFeed(0)
	defer f.Close()
	sub := f.Subscribe()
	defer sub.Close()

	for e := int64(1); e <= 5; e++ {
		f.Publish(feedRecord(e))
	}
	if err := waitReturns(t, sub); err != nil {
		t.Fatalf("Wait after publishes = %v, want a wake-up", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := sub.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Wait with no new publish = %v, want DeadlineExceeded", err)
	}
	go f.Publish(feedRecord(6))
	if err := waitReturns(t, sub); err != nil {
		t.Fatalf("Wait across a concurrent publish = %v, want a wake-up", err)
	}
}

// TestFeedPublishNeverBlocks is the backpressure contract: publishing to
// a subscriber that never waits cannot block the publisher.
func TestFeedPublishNeverBlocks(t *testing.T) {
	f := NewChangeFeed(0)
	defer f.Close()
	sub := f.Subscribe()
	defer sub.Close()

	// If Publish could block, this loop would deadlock the test (caught
	// by the timeout).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := int64(1); e <= 100; e++ {
			f.Publish(feedRecord(e))
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a subscriber that never waits")
	}
	if err := waitReturns(t, sub); err != nil {
		t.Fatalf("Wait after 100 publishes = %v, want one wake-up", err)
	}
}

// TestFeedIndependentSubscribers: every subscriber is woken by each
// publish, whether or not the others ever wait.
func TestFeedIndependentSubscribers(t *testing.T) {
	f := NewChangeFeed(0)
	defer f.Close()
	idle := f.Subscribe()
	defer idle.Close()
	busy := f.Subscribe()
	defer busy.Close()

	for e := int64(1); e <= 20; e++ {
		f.Publish(feedRecord(e))
		if err := waitReturns(t, busy); err != nil {
			t.Fatalf("publish %d: busy subscriber Wait = %v", e, err)
		}
	}
	if err := waitReturns(t, idle); err != nil {
		t.Fatalf("idle subscriber Wait = %v, want a wake-up", err)
	}
}

// TestFeedNoLostWakeup is the handlers' subscribe-then-read protocol
// under concurrency: waiters that subscribe, read a counter standing in
// for the audit history and Wait while it is short all reach the final
// value, however their reads and waits interleave with the publisher's
// store-then-publish.
func TestFeedNoLostWakeup(t *testing.T) {
	const waiters, publishes = 8, 200
	f := NewChangeFeed(0)
	defer f.Close()
	var history atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := f.Subscribe()
			defer sub.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for history.Load() < publishes {
				if err := sub.Wait(ctx); err != nil {
					errc <- fmt.Errorf("waiter parked at %d of %d: %w", history.Load(), publishes, err)
					return
				}
			}
		}()
	}
	for e := int64(1); e <= publishes; e++ {
		history.Store(e)
		f.Publish(feedRecord(e))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestFeedWaitContextCancel: a blocked Wait returns promptly with the
// context error when the caller gives up.
func TestFeedWaitContextCancel(t *testing.T) {
	f := NewChangeFeed(0)
	defer f.Close()
	sub := f.Subscribe()
	defer sub.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := sub.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on idle feed = %v, want DeadlineExceeded", err)
	}
}

// TestFeedCloseWakesSubscribers: Close wakes a blocked Wait with
// ErrFeedClosed, and a publish just before Close is still reported
// first, so a waiter rereads history before it ends.
func TestFeedCloseWakesSubscribers(t *testing.T) {
	f := NewChangeFeed(0)
	parked := f.Subscribe()
	defer parked.Close()
	late := f.Subscribe()
	defer late.Close()

	errc := make(chan error, 1)
	go func() { errc <- waitReturns(t, parked) }()
	time.Sleep(10 * time.Millisecond) // let the waiter park (either order must pass)
	f.Close()
	f.Close() // idempotent
	select {
	case err := <-errc:
		if !errors.Is(err, ErrFeedClosed) {
			t.Fatalf("Wait after close = %v, want ErrFeedClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the subscriber")
	}
	f.Publish(feedRecord(2)) // no-op after close, must not panic

	g := NewChangeFeed(0)
	sub := g.Subscribe()
	defer sub.Close()
	g.Publish(feedRecord(1))
	g.Close()
	if err := waitReturns(t, sub); err != nil {
		t.Fatalf("first Wait after publish+close = %v, want the publish", err)
	}
	if err := waitReturns(t, sub); !errors.Is(err, ErrFeedClosed) {
		t.Fatalf("second Wait after publish+close = %v, want ErrFeedClosed", err)
	}
	if err := waitReturns(t, late); !errors.Is(err, ErrFeedClosed) {
		t.Fatalf("Wait of a subscriber that never waited before close = %v, want ErrFeedClosed", err)
	}
}
