package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/faultinject"
	"partitionshare/internal/profileio"
	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
)

// testProfile builds a small deterministic tenant profile.
func testProfile(t testing.TB, seed uint64) profileio.Profile {
	t.Helper()
	g := trace.NewZipf(512, 0.7, seed)
	rp := reuse.Collect(trace.Generate(g, 4096))
	return profileio.Profile{Name: fmt.Sprintf("tenant-%d", seed), Rate: 1.0, Reuse: rp}
}

// canonical returns a store's or audit log's canonical bytes.
func canonical(t *testing.T, s interface{ CanonicalBytes() ([]byte, error) }) []byte {
	t.Helper()
	b, err := s.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := s.Put(fmt.Sprintf("t%d", i), testProfile(t, i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	want := canonical(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("reopened store diverges:\n%s\nvs\n%s", got, want)
	}
	if names := re.Names(); strings.Join(names, ",") != "t1,t2,t3" {
		t.Fatalf("Names = %v", names)
	}
	p, err := re.Get("t2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "tenant-2" {
		t.Fatalf("Get returned profile %q", p.Name)
	}
}

func TestStoreDeleteAndNotFound(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrTenantNotFound) {
		t.Fatalf("double delete = %v, want ErrTenantNotFound", err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrTenantNotFound) {
		t.Fatalf("Get deleted = %v, want ErrTenantNotFound", err)
	}
	want := canonical(t, s)
	s.Close()
	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("delete not durable:\n%s\nvs\n%s", got, want)
	}
}

// TestStoreCompaction drives enough churn to trigger automatic
// compaction and checks the state survives it and a reopen.
func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 11; i++ {
		if err := s.Put(fmt.Sprintf("t%d", i%5), testProfile(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatalf("compaction never ran: %v", err)
	}
	want := canonical(t, s)
	s.Close()
	re, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("post-compaction reopen diverges")
	}
}

// TestStoreInjectedAppendFailure proves a failed journal append is not
// applied: the store's memory and disk state both stay at the last
// acknowledged operation.
func TestStoreInjectedAppendFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("survivor", testProfile(t, 1)); err != nil {
		t.Fatal(err)
	}
	want := canonical(t, s)

	plan := faultinject.NewPlan()
	plan.Set(atomicio.FaultLogAppend, faultinject.Rule{Count: 1, TruncateAt: 5})
	faultinject.Enable(plan)
	err = s.Put("doomed", testProfile(t, 2))
	faultinject.Enable(nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put under fault = %v, want injected error", err)
	}
	if got := canonical(t, s); !bytes.Equal(got, want) {
		t.Fatalf("failed Put mutated in-memory state")
	}
	// And the rolled-back journal replays cleanly after reopen.
	s.Close()
	re, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := canonical(t, re); !bytes.Equal(got, want) {
		t.Fatalf("failed Put leaked to disk")
	}
	if err := re.Put("doomed", testProfile(t, 2)); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
}

// TestStoreInjectedPutFault covers the store-level fault point.
func TestStoreInjectedPutFault(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan := faultinject.NewPlan()
	plan.Set(FaultStorePut, faultinject.Rule{Count: 1})
	faultinject.Enable(plan)
	defer faultinject.Enable(nil)
	if err := s.Put("x", testProfile(t, 1)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Put = %v, want injected error", err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed Put registered a tenant")
	}
}
