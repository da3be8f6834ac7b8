// Package par runs indexed jobs on a fixed worker pool. It is the one
// worker loop of the experiment layer — the Table I sweep, the pair
// validation, the §VIII studies and suite profiling — and follows the
// pool pattern of DESIGN.md §9: the jobs channel is pre-filled and closed
// before the workers start, each worker checks the context before it
// takes a job, and a panicking job becomes an error at its index instead
// of crashing the process.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Do runs job(w, i) once for each i in [0, n) on
// min(workers, GOMAXPROCS, n) goroutines; workers <= 0 means GOMAXPROCS.
// w in [0, pool size) is the index of the worker running the job, for
// per-worker state such as a trace lane; jobs on one worker run one after
// another.
//
// Once ctx is cancelled no further job starts; Do still returns only
// after every started job has finished, so no goroutine outlives it.
// errs[i] is job i's error: nil when it succeeded or never started, so a
// caller tells a cut run by ctx.Err(). A job that panics yields an error
// at its index that reads "panic: <value>\n<stack>" and unwraps to the
// value when it is an error, so errors.Is reaches a typed cause.
func Do(ctx context.Context, n, workers int, job func(w, i int) error) []error {
	errs := make([]error, n)
	if p := runtime.GOMAXPROCS(0); workers <= 0 || workers > p {
		workers = p
	}
	workers = min(workers, n)
	jobs := make(chan int, n)
	for i := range n {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				errs[i] = run(job, w, i)
			}
		}()
	}
	wg.Wait()
	return errs
}

// run calls job(w, i) with a panic recovered into its error.
func run(job func(w, i int) error, w, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{value: r, stack: debug.Stack()}
		}
	}()
	return job(w, i)
}

// panicError is a recovered panic: its value and the panicking
// goroutine's stack.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v\n%s", e.value, e.stack) }

// Unwrap returns the panic value when it is an error, so errors.Is and
// errors.As reach a typed cause.
func (e *panicError) Unwrap() error {
	err, _ := e.value.(error)
	return err
}
