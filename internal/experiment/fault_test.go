package experiment

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"partitionshare/internal/workload"
)

// faultCfg is a deliberately tiny geometry: 6 programs × C(6,3) = 20
// groups keeps every fault-model test under a second.
var faultCfg = workload.Config{Units: 32, BlocksPerUnit: 4, TraceLen: 1 << 14, Seed: 1}

var (
	faultOnce  sync.Once
	faultProgs []workload.Program
	faultErr   error
)

func faultSuite(t *testing.T) []workload.Program {
	t.Helper()
	faultOnce.Do(func() {
		faultProgs, faultErr = workload.ProfileAll(nil, workload.Specs()[:6], faultCfg)
	})
	if faultErr != nil {
		t.Fatal(faultErr)
	}
	return faultProgs
}

func runFault(t *testing.T, opts RunOpts) Result {
	t.Helper()
	res, err := Run(nil, faultSuite(t), 3, faultCfg.Units, faultCfg.BlocksPerUnit, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCombinationCount(t *testing.T) {
	for _, tc := range []struct {
		n, k int
		want uint64
	}{
		{16, 4, 1820}, {4, 4, 1}, {5, 0, 1}, {0, 0, 1}, {5, 1, 5},
		{52, 26, 495918532948104}, {62, 31, 465428353255261088},
	} {
		got, err := CombinationCount(tc.n, tc.k)
		if err != nil || got != tc.want {
			t.Errorf("C(%d, %d) = %d, %v; want %d", tc.n, tc.k, got, err, tc.want)
		}
	}
}

// The int-typed product the package used before overflowed silently from
// n ≈ 62 up; the uint64 version must detect it instead.
func TestCombinationCountOverflow(t *testing.T) {
	if _, err := CombinationCount(100, 50); !errors.Is(err, ErrTooManyGroups) {
		t.Errorf("C(100, 50) error = %v, want ErrTooManyGroups", err)
	}
	if _, err := CombinationCount(16, 17); err == nil {
		t.Error("C(16, 17) should error")
	}
	// Countable but far beyond the enumeration cap.
	if _, err := Combinations(40, 20); !errors.Is(err, ErrTooManyGroups) {
		t.Errorf("Combinations(40, 20) error = %v, want ErrTooManyGroups", err)
	}
}

// Worker counts at both bounds (serial, and far beyond GOMAXPROCS) must
// produce the identical result set.
func TestRunWorkerBounds(t *testing.T) {
	want := runFault(t, RunOpts{})
	for _, workers := range []int{1, -5, 10000} {
		got := runFault(t, RunOpts{Workers: workers})
		if !sameGroups(got.Groups, want.Groups) {
			t.Fatalf("Workers=%d: results differ from default run", workers)
		}
	}
}

// sameGroups compares members, group miss ratios and every scheme's
// allocation, through the accessors a reader of a Result uses.
func sameGroups(a, b []GroupResult) bool {
	if len(a) != len(b) {
		return false
	}
	for g := range a {
		if !reflect.DeepEqual(a[g].Members(), b[g].Members()) || a[g].GroupMR != b[g].GroupMR {
			return false
		}
		for s := Scheme(0); s < NumSchemes; s++ {
			if !reflect.DeepEqual(a[g].Alloc(s), b[g].Alloc(s)) {
				return false
			}
		}
	}
	return true
}

// A panicking group must surface as a typed GroupError naming the group,
// never crash the process, and (in collect mode) not take the other
// groups down with it.
func TestRunPanicIsolation(t *testing.T) {
	defer func() { testHookEvaluateGroup = nil }()
	poison := []int{0, 1, 2}
	errInjected := errors.New("injected fault")
	testHookEvaluateGroup = func(members []int) {
		if reflect.DeepEqual(members, poison) {
			panic(errInjected)
		}
	}
	progs := faultSuite(t)

	res, err := Run(nil, progs, 3, faultCfg.Units, faultCfg.BlocksPerUnit, RunOpts{})
	if err == nil {
		t.Fatal("expected an error from the poisoned group")
	}
	var ge *GroupError
	if !errors.As(err, &ge) {
		t.Fatalf("error %T does not unwrap to *GroupError: %v", err, err)
	}
	if !reflect.DeepEqual(ge.Members, poison) {
		t.Fatalf("GroupError.Members = %v, want %v", ge.Members, poison)
	}
	if !errors.Is(ge.Cause, errInjected) {
		t.Fatalf("GroupError.Cause = %v, want a chain containing the injected panic error", ge.Cause)
	}
	if want := 20 - 1; len(res.Groups) != want {
		t.Fatalf("collect mode kept %d groups, want %d", len(res.Groups), want)
	}
	for _, gr := range res.Groups {
		if reflect.DeepEqual(gr.Members(), poison) {
			t.Fatal("poisoned group present in results")
		}
	}

	// FailFast: the same fault returns the GroupError directly.
	_, err = Run(nil, progs, 3, faultCfg.Units, faultCfg.BlocksPerUnit, RunOpts{FailFast: true, Workers: 1})
	if !errors.As(err, &ge) {
		t.Fatalf("FailFast error %T does not unwrap to *GroupError: %v", err, err)
	}
}

// Cancelling mid-sweep must return context.Canceled, keep the groups
// completed before the cut, and leak no goroutines.
func TestRunCancellationMidSweep(t *testing.T) {
	defer func() { testHookEvaluateGroup = nil }()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired sync.Once
	var hookCalls int
	var mu sync.Mutex
	testHookEvaluateGroup = func([]int) {
		mu.Lock()
		hookCalls++
		n := hookCalls
		mu.Unlock()
		if n >= 3 {
			fired.Do(cancel)
		}
	}
	res, err := Run(ctx, faultSuite(t), 3, faultCfg.Units, faultCfg.BlocksPerUnit,
		RunOpts{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if len(res.Groups) != 20 {
		t.Fatalf("partial result has %d group slots, want 20", len(res.Groups))
	}
	kept := 0
	for _, gr := range res.Groups {
		if gr.Members() != nil {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("partial result kept no completed group despite groups finishing before the cut")
	}

	// No goroutine leaks: the worker pool must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// A context cancelled before the sweep starts does no work at all.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	defer func() { testHookEvaluateGroup = nil }()
	evaluated := false
	testHookEvaluateGroup = func([]int) { evaluated = true }
	_, err := Run(ctx, faultSuite(t), 3, faultCfg.Units, faultCfg.BlocksPerUnit, RunOpts{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if evaluated {
		t.Fatal("groups were evaluated despite a pre-cancelled context")
	}
}
