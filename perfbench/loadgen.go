package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// An arrival is one scheduled open-loop request: when it is due, as an
// offset from the phase start, and which generated input it carries.
type arrival struct {
	Due  time.Duration
	Item int
}

// poissonSchedule returns the arrivals of a Poisson process of the given
// mean rate (per second) over dur: independent users, each request due
// regardless of how the previous ones fared. Items are drawn uniformly
// from [0, items).
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, items int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, arrival{Due: d, Item: rng.IntN(items)})
	}
}

// uniformSchedule returns n arrivals spaced evenly over dur, the first one
// interval/2 in, with items taken in order.
func uniformSchedule(n int, dur time.Duration) []arrival {
	out := make([]arrival, n)
	step := dur / time.Duration(n)
	for i := range out {
		out[i] = arrival{Due: step/2 + time.Duration(i)*step, Item: i}
	}
	return out
}

// A sample is one open-loop request's timing: Lag from its due time to
// the moment it was sent, Latency from its due time to its completion.
// Timing from the due time charges a stalled request's wait to every
// request queued behind it.
type sample struct {
	Lag     time.Duration
	Latency time.Duration
	OK      bool
}

// openLoop plays the schedule from start over `workers` senders — one per
// connection, so at most that many requests are in flight. Each sender
// takes the next arrival, waits for its due time (or sends at once when
// already late) and calls do with the arrival's index. Samples come back
// in schedule order. A cancelled ctx stops the senders; unsent arrivals
// are then not OK.
func openLoop(ctx context.Context, start time.Time, sched []arrival, workers int,
	do func(worker, i int, a arrival, due time.Time) bool) []sample {
	out := make([]sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].Due)
				if !waitUntil(ctx, timer, due) {
					return
				}
				sent := time.Now()
				ok := do(w, i, sched[i], due)
				out[i] = sample{Lag: sent.Sub(due), Latency: time.Since(due), OK: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// preciseWindow is how long before a due time the sender stops trusting
// the Go timer. An idle runtime polls its timers at millisecond
// resolution, which would add up to a millisecond of generator lag to
// every request; the kernel ends a nanosleep within tens of microseconds.
const preciseWindow = 1500 * time.Microsecond

// waitUntil blocks until due: on the Go timer until shortly before it,
// then in nanosleep. It returns false when ctx ends first.
func waitUntil(ctx context.Context, timer *time.Timer, due time.Time) bool {
	if wait := time.Until(due) - preciseWindow; wait > 0 {
		timer.Reset(wait)
		select {
		case <-ctx.Done():
			return false
		case <-timer.C:
		}
	}
	for wait := time.Until(due); wait > 0; wait = time.Until(due) {
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		// An interrupted sleep just loops and sleeps the rest.
		_ = syscall.Nanosleep(&ts, nil)
	}
	return ctx.Err() == nil
}

// closedLoop runs `workers` callers for dur, each issuing its next
// request only when the previous one completed, and returns the
// successful and failed counts and the elapsed time.
func closedLoop(ctx context.Context, dur time.Duration, workers int,
	do func(worker int) bool) (ok, failed int64, elapsed time.Duration) {
	var okN, failN atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				if do(w) {
					okN.Add(1)
				} else {
					failN.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return okN.Load(), failN.Load(), time.Since(start)
}

// closedLoopRate runs closedLoop over consecutive windows filling dur and
// returns the median window's rate of successful calls per second, with
// the totals. The median drops windows in which something else on the
// machine took the CPU.
func closedLoopRate(ctx context.Context, dur, window time.Duration, workers int,
	do func(worker int) bool) (rate float64, ok, failed int64) {
	var rates []float64
	for t := time.Duration(0); t < dur; t += window {
		o, f, el := closedLoop(ctx, window, workers, do)
		ok += o
		failed += f
		rates = append(rates, float64(o)/el.Seconds())
	}
	return median(rates), ok, failed
}

// lagStats returns the open-loop generator's p99 lag in milliseconds and
// the share of requests sent more than a millisecond late.
func lagStats(samples []sample) (p99ms, lateFrac float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	lags := make([]float64, len(samples))
	late := 0
	for i, s := range samples {
		lags[i] = ms(s.Lag)
		if s.Lag > time.Millisecond {
			late++
		}
	}
	return percentile(lags, 99), float64(late) / float64(len(samples))
}
