package reuse

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"partitionshare/internal/obs"
	"partitionshare/internal/trace"
)

// Observability names for the parallel collector, package-prefixed
// dotted.snake per the obsname registry convention.
const (
	spanCollectParallel = "reuse.collect_parallel"
	spanShard           = "reuse.shard"

	mWorkerAccesses   = "reuse.worker_accesses"
	mParallelCollects = "reuse.parallel_collects"
	mShards           = "reuse.shards"
	mBoundaryReuses   = "reuse.boundary_reuses"
)

// minShardLen is the smallest trace segment worth a goroutine; below
// 2×minShardLen the serial scan wins outright.
const minShardLen = 1 << 15

// cancelStride is how many accesses a shard scans between cancellation
// checks: large enough that the check is free, small enough that a shard
// responds to Ctrl-C within a few milliseconds.
const cancelStride = 1 << 16

// CollectParallel computes the same Profile as Collect by profiling
// disjoint trace segments concurrently and merging the sub-profiles.
// workers <= 0 uses all CPUs. An empty trace returns ErrEmptyTrace; if ctx
// is cancelled mid-scan the shards drain promptly and ctx.Err() is
// returned.
//
// The decomposition is exact, not approximate: a reuse pair — two
// consecutive accesses to the same datum — either falls inside one segment
// (counted by that shard's scan) or straddles a segment boundary, in which
// case it is reconstructed during the merge from the earlier segment's
// last-access position and the later segment's first-access position.
// Every histogram therefore matches the serial scan's exactly, and the
// Profile's TailSums are field-for-field identical to Collect's and
// CollectReference's.
func CollectParallel(ctx context.Context, t trace.Trace, workers int) (Profile, error) {
	if len(t) == 0 {
		return Profile{}, ErrEmptyTrace
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Profile{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := len(t) / minShardLen; workers > max {
		workers = max
	}
	if workers <= 1 || int64(len(t)) >= math.MaxInt32 {
		return Collect(t), nil
	}
	n := len(t)
	ctx, cps := obs.Start(ctx, spanCollectParallel, "profile")
	defer cps.Arg("workers", int64(workers)).End()

	// One watcher flips the flag on cancellation; shards poll it every
	// cancelStride accesses, which is far cheaper than calling ctx.Err()
	// (a mutex) from every worker's inner loop.
	var canceled atomic.Bool
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			canceled.Store(true)
		case <-watchDone:
		}
	}()

	// Each shard runs the serial scan kernel over its segment, at the
	// segment's absolute positions.
	shards := make([]*scanner, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		start, end := s*n/workers, (s+1)*n/workers
		wg.Add(1)
		go func(s, start, end int) {
			defer wg.Done()
			_, ss := obs.Start(obs.WithTraceLane(ctx, int64(s+1)), spanShard, "profile")
			defer ss.Arg("accesses", int64(end-start)).End()
			seg := t[start:end]
			sc := newScanner(start, end-start)
			for i := 0; i < len(seg); i += cancelStride {
				if canceled.Load() {
					return
				}
				sc.scan(seg[i:min(i+cancelStride, len(seg))])
			}
			shards[s] = sc
			// Per-worker tally: one batched add per completed shard, so
			// the scan loop itself carries no instrumentation cost.
			if reg := obs.Enabled(); reg != nil {
				reg.Counter(mWorkerAccesses).Add(int64(end - start))
			}
		}(s, start, end)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Profile{}, err
	}

	// Merge in segment order: internal reuse histograms add directly;
	// boundary pairs connect each shard's first access to the datum's most
	// recent access in any earlier shard. A shard's first-access list
	// holds positions, and the trace names the datum at each one.
	g := newScanner(0, n)
	boundary := int64(0)
	for i, sh := range shards {
		sh.reused.each(func(v uint32) { g.addReuse(int32(v), sh.reuse[v]) })
		for _, f := range sh.first {
			d := t[f-1]
			if prev := g.pt.set(d, sh.pt.get(d)); prev != 0 {
				g.addReuse(f-prev, 1)
				boundary++
			} else {
				g.first = append(g.first, f)
			}
		}
		shards[i] = nil
	}
	if reg := obs.Enabled(); reg != nil {
		reg.Counter(mParallelCollects).Inc()
		reg.Counter(mShards).Add(int64(workers))
		reg.Counter(mBoundaryReuses).Add(boundary)
	}
	return g.profile(), nil
}
