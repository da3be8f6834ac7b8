package par

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

var errJob = errors.New("job failed")

func TestDo(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, workers int
		procs      int  // GOMAXPROCS for the run; 0 keeps it
		preCancel  bool // cancel ctx before Do
		cancelAt   int  // job index that cancels ctx; -1 for none
		panicAt    int  // job index that panics; -1 for none
		panicValue any
		failAt     int // job index that returns errJob; -1 for none
		wantPool   int // workers that must run at once
		wantRun    int // jobs that must start
	}{
		{name: "every index once", n: 200, workers: 0, cancelAt: -1, panicAt: -1, failAt: 7,
			wantPool: runtime.GOMAXPROCS(0), wantRun: 200},
		{name: "capped at n", n: 2, workers: 64, procs: 4, cancelAt: -1, panicAt: -1, failAt: -1,
			wantPool: 2, wantRun: 2},
		{name: "capped at GOMAXPROCS", n: 50, workers: 64, procs: 3, cancelAt: -1, panicAt: -1, failAt: -1,
			wantPool: 3, wantRun: 50},
		{name: "serial", n: 20, workers: 1, procs: 4, cancelAt: -1, panicAt: -1, failAt: -1,
			wantPool: 1, wantRun: 20},
		{name: "pre-cancelled", n: 20, workers: 0, preCancel: true, cancelAt: -1, panicAt: -1, failAt: -1,
			wantRun: 0},
		{name: "cancelled mid-run", n: 20, workers: 1, cancelAt: 4, panicAt: -1, failAt: -1,
			wantPool: 1, wantRun: 5},
		{name: "panic with an error", n: 30, workers: 0, cancelAt: -1, panicAt: 11, panicValue: errJob, failAt: -1,
			wantPool: runtime.GOMAXPROCS(0), wantRun: 30},
		{name: "panic with a string", n: 30, workers: 0, cancelAt: -1, panicAt: 11, panicValue: "boom", failAt: -1,
			wantPool: runtime.GOMAXPROCS(0), wantRun: 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.preCancel {
				cancel()
			}
			pool := min(tc.wantPool, tc.n)
			runs := make([]atomic.Int32, tc.n)
			var started, inflight, peak, maxW atomic.Int64
			errs := Do(ctx, tc.n, tc.workers, func(w, i int) error {
				runs[i].Add(1)
				s := started.Add(1)
				cur := inflight.Add(1)
				defer inflight.Add(-1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				for m := maxW.Load(); int64(w) > m && !maxW.CompareAndSwap(m, int64(w)); m = maxW.Load() {
				}
				// Hold the first pool-sized batch until all of it has
				// started, so the peak shows the pool's whole width.
				for deadline := time.Now().Add(5 * time.Second); s <= int64(pool) && started.Load() < int64(pool) && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				switch i {
				case tc.cancelAt:
					cancel()
				case tc.panicAt:
					panic(tc.panicValue)
				case tc.failAt:
					return errJob
				}
				return nil
			})

			if len(errs) != tc.n {
				t.Fatalf("len(errs) = %d, want %d", len(errs), tc.n)
			}
			if got := int(started.Load()); got != tc.wantRun {
				t.Errorf("%d jobs started, want %d", got, tc.wantRun)
			}
			for i := range runs {
				if r := runs[i].Load(); r > 1 {
					t.Errorf("job %d ran %d times", i, r)
				}
				if tc.cancelAt < 0 && !tc.preCancel && runs[i].Load() != 1 {
					t.Errorf("job %d never ran", i)
				}
			}
			if tc.wantRun > 0 {
				if got := int(peak.Load()); got != pool {
					t.Errorf("peak concurrency %d, want %d", got, pool)
				}
				if got := int(maxW.Load()); got >= pool {
					t.Errorf("worker index %d, want < %d", got, pool)
				}
			}
			for i, err := range errs {
				switch {
				case i == tc.failAt:
					if !errors.Is(err, errJob) {
						t.Errorf("errs[%d] = %v, want errJob", i, err)
					}
				case i == tc.panicAt:
					var pe *panicError
					if !errors.As(err, &pe) {
						t.Fatalf("errs[%d] = %v, want a recovered panic", i, err)
					}
					if pe.value != tc.panicValue || !bytes.Contains(pe.stack, []byte("par.TestDo")) {
						t.Errorf("recovered %v with stack\n%s\nwant %v and the job's frame", pe.value, pe.stack, tc.panicValue)
					}
					if perr, ok := tc.panicValue.(error); ok && !errors.Is(err, perr) {
						t.Errorf("errs[%d] = %v does not wrap the panic value", i, err)
					}
				case err != nil:
					t.Errorf("errs[%d] = %v, want nil", i, err)
				}
			}

			// Do has joined its workers; none may be left behind.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if now := runtime.NumGoroutine(); now > before {
				t.Errorf("goroutines leaked: %d before, %d after", before, now)
			}
		})
	}
}
