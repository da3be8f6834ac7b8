package experiment

import (
	"context"
	"errors"
	"os"
	"path/filepath"
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
		if !reflect.DeepEqual(got.Groups, want.Groups) {
			t.Fatalf("Workers=%d: results differ from default run", workers)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	res := runFault(t, RunOpts{CheckpointPath: path, CheckpointEvery: 4})
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Compatible(6, 3, faultCfg.Units, faultCfg.BlocksPerUnit); err != nil {
		t.Fatal(err)
	}
	if len(ck.Groups) != len(res.Groups) {
		t.Fatalf("checkpoint has %d groups, want %d", len(ck.Groups), len(res.Groups))
	}
	if !reflect.DeepEqual(ck.Groups, res.Groups) {
		t.Fatal("checkpoint groups differ from run results")
	}
}

func TestCheckpointRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := ReadCheckpoint(filepath.Join(dir, "missing.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file error = %v, want os.ErrNotExist", err)
	}
	if _, err := ReadCheckpoint(write("garbage.json", "{not json")); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("garbage error = %v, want ErrCheckpointCorrupt", err)
	}
	if _, err := ReadCheckpoint(write("vers.json",
		`{"version":99,"num_programs":6,"group_size":3,"units":32,"blocks_per_unit":4,"groups":[]}`)); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("version error = %v, want ErrCheckpointVersion", err)
	}
	if _, err := ReadCheckpoint(write("geom.json",
		`{"version":1,"num_programs":0,"group_size":3,"units":32,"blocks_per_unit":4,"groups":[]}`)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("geometry error = %v, want ErrCheckpointCorrupt", err)
	}
	if _, err := ReadCheckpoint(write("members.json",
		`{"version":1,"num_programs":6,"group_size":3,"units":32,"blocks_per_unit":4,"groups":[{"Members":[2,1,0]}]}`)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("member-order error = %v, want ErrCheckpointCorrupt", err)
	}
	allocs := `[[8,8,16],[8,8,16],[8,8,16],[8,8,16],[8,8,16],[8,8,99]]`
	if _, err := ReadCheckpoint(write("alloc.json",
		`{"version":1,"num_programs":6,"group_size":3,"units":32,"blocks_per_unit":4,"groups":[{"Members":[0,1,2],"Alloc":`+allocs+`}]}`)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("out-of-range allocation error = %v, want ErrCheckpointCorrupt", err)
	}
	if _, err := ReadCheckpoint(write("noalloc.json",
		`{"version":1,"num_programs":6,"group_size":3,"units":32,"blocks_per_unit":4,"groups":[{"Members":[0,1,2]}]}`)); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("missing allocation error = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestRunRejectsMismatchedCheckpoint(t *testing.T) {
	ck := &Checkpoint{Version: CheckpointVersion, NumPrograms: 9, GroupSize: 3,
		Units: faultCfg.Units, BlocksPerUnit: faultCfg.BlocksPerUnit}
	_, err := Run(nil, faultSuite(t), 3, faultCfg.Units, faultCfg.BlocksPerUnit, RunOpts{Resume: ck})
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("error = %v, want ErrCheckpointMismatch", err)
	}
}

// Resuming from a checkpoint holding only part of the sweep must
// reproduce the uninterrupted run bit for bit — both the raw results and
// the rendered Table I.
func TestResumeReproducesBitIdentical(t *testing.T) {
	full := runFault(t, RunOpts{})
	// A checkpoint as a mid-sweep kill would leave it: an arbitrary
	// half of the groups completed (every second one).
	partial := &Checkpoint{
		Version: CheckpointVersion, NumPrograms: 6, GroupSize: 3,
		Units: faultCfg.Units, BlocksPerUnit: faultCfg.BlocksPerUnit,
	}
	for g := 0; g < len(full.Groups); g += 2 {
		partial.Groups = append(partial.Groups, full.Groups[g])
	}
	resumed := runFault(t, RunOpts{Resume: partial})
	if !reflect.DeepEqual(resumed.Groups, full.Groups) {
		t.Fatal("resumed results differ from the uninterrupted run")
	}
	if a, b := FormatTableI(TableI(full)), FormatTableI(TableI(resumed)); a != b {
		t.Fatalf("Table I differs after resume:\n%s\nvs\n%s", a, b)
	}
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
		if reflect.DeepEqual(gr.Members, poison) {
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
// completed before the cut, flush a loadable checkpoint, and leak no
// goroutines.
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
	path := filepath.Join(t.TempDir(), "ckpt.json")
	res, err := Run(ctx, faultSuite(t), 3, faultCfg.Units, faultCfg.BlocksPerUnit,
		RunOpts{Workers: 2, CheckpointPath: path, CheckpointEvery: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if len(res.Groups) != 20 {
		t.Fatalf("partial result has %d group slots, want 20", len(res.Groups))
	}
	ck, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint after cancellation: %v", err)
	}
	if len(ck.Groups) == 0 {
		t.Fatal("cancellation flushed an empty checkpoint despite completed groups")
	}

	// No goroutine leaks: the pool and checkpointer must be gone.
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
