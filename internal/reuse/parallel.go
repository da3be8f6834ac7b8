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

	// shardProfile is one segment's scan result: per-datum first and last
	// absolute positions, the histogram of segment-internal reuse times,
	// and the largest datum ID seen (to size the merge's global table).
	type shardProfile struct {
		first, last *posTable
		reuse       []int32
		maxAddr     uint32
	}
	shards := make([]shardProfile, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		start, end := s*n/workers, (s+1)*n/workers
		wg.Add(1)
		go func(s, start, end int) {
			defer wg.Done()
			_, ss := obs.Start(obs.WithTraceLane(ctx, int64(s+1)), spanShard, "profile")
			defer ss.Arg("accesses", int64(end-start)).End()
			seg := t[start:end]
			var maxAddr uint32
			for _, d := range seg {
				if d > maxAddr {
					maxAddr = d
				}
			}
			sp := shardProfile{
				first:   newPosTable(maxAddr),
				last:    newPosTable(maxAddr),
				reuse:   make([]int32, end-start+1),
				maxAddr: maxAddr,
			}
			for i, d := range seg {
				if i&(cancelStride-1) == 0 && canceled.Load() {
					return
				}
				pos := int32(start+i) + 1
				if prev := sp.last.set(d, pos); prev != 0 {
					sp.reuse[pos-prev]++
				} else {
					sp.first.set(d, pos)
				}
			}
			shards[s] = sp
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
	// recent access in any earlier shard.
	var maxAddr uint32
	for _, sp := range shards {
		if sp.maxAddr > maxAddr {
			maxAddr = sp.maxAddr
		}
	}
	global := newPosTable(maxAddr)
	reuseHist := make([]int32, n+1)
	firstHist := make([]int32, n+1)
	m := 0
	boundary := int64(0)
	for _, sp := range shards {
		for v, c := range sp.reuse {
			if c != 0 {
				reuseHist[v] += c
			}
		}
		sp.first.each(func(d uint32, f int32) {
			if prev := global.set(d, sp.last.get(d)); prev != 0 {
				reuseHist[f-prev]++
				boundary++
			} else {
				firstHist[f]++
				m++
			}
		})
	}
	if reg := obs.Enabled(); reg != nil {
		reg.Counter(mParallelCollects).Inc()
		reg.Counter(mShards).Add(int64(workers))
		reg.Counter(mBoundaryReuses).Add(boundary)
	}
	lastHist := make([]int32, n+1)
	global.each(func(_ uint32, p int32) {
		lastHist[int32(n)-p+1]++
	})
	return Profile{
		N:     int64(n),
		M:     int64(m),
		Reuse: newTailSumDense(reuseHist),
		First: newTailSumDense(firstHist),
		Last:  newTailSumDense(lastHist),
	}, nil
}
