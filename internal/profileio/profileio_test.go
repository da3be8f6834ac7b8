package profileio

import (
	"bytes"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"partitionshare/internal/footprint"
	"partitionshare/internal/reuse"
	"partitionshare/internal/trace"
	"partitionshare/internal/workload"
)

func sampleProfile(t *testing.T) Profile {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	tr := make(trace.Trace, 5000)
	for i := range tr {
		tr[i] = uint32(rng.IntN(200))
	}
	return Profile{Name: "sample", Rate: 2.5, Reuse: reuse.Collect(tr)}
}

func TestRoundTrip(t *testing.T) {
	p := sampleProfile(t)
	var b strings.Builder
	if err := Write(&b, p); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || got.Rate != p.Rate {
		t.Errorf("metadata changed: %+v", got)
	}
	if got.Reuse.N != p.Reuse.N || got.Reuse.M != p.Reuse.M {
		t.Errorf("n/m changed: %d/%d", got.Reuse.N, got.Reuse.M)
	}
	// The reconstructed footprint is bit-identical at every window.
	a, c := footprint.New(p.Reuse), got.Footprint()
	for w := int64(0); w <= p.Reuse.N; w += 37 {
		if a.AtInt(w) != c.AtInt(w) {
			t.Fatalf("fp(%d) changed: %v vs %v", w, a.AtInt(w), c.AtInt(w))
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	p := sampleProfile(t)
	path := filepath.Join(t.TempDir(), "p.hotl")
	if err := WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "sample" {
		t.Errorf("name = %q", got.Name)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("expected error")
	}
}

func TestWriteRejectsBadName(t *testing.T) {
	p := sampleProfile(t)
	p.Name = "two words"
	var b strings.Builder
	if err := Write(&b, p); err == nil {
		t.Fatal("expected error for whitespace in name")
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	p := sampleProfile(t)
	var b strings.Builder
	if err := Write(&b, p); err != nil {
		t.Fatal(err)
	}
	good := b.String()
	cases := []string{
		"",
		"nothotl v1\n",
		"hotlprof v2\n",
		strings.Replace(good, "rate 2.5", "rate -1", 1),
		strings.Replace(good, "reuse", "zeuse", 1),
		good[:len(good)/2],                         // truncated
		strings.Replace(good, "n 5000", "n 10", 1), // totals mismatch
		strings.Replace(good, "name sample", "noname x", 1),
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadRejectsInvalidHistEntries(t *testing.T) {
	bad := "hotlprof v1\nname x\nrate 1\nn 3 m 2\nreuse 1\n-1 1\nfirst 2\n1 1\n2 1\nlast 2\n1 1\n2 1\n"
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Fatal("expected error for negative histogram value")
	}
}

// The wire and on-disk bytes of every workload profile at the default
// geometry are pinned to the reference writer, byte for byte, and Read
// gives back exactly the profile that was written.
func TestWriteMatchesReferenceOnWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles all 16 workloads at full geometry")
	}
	if raceEnabled {
		t.Skip("full-geometry profiling under the race detector")
	}
	cfg := workload.DefaultConfig()
	for _, spec := range workload.Specs() {
		tr := trace.Generate(spec.Build(uint32(cfg.CacheBlocks()), cfg.Seed), cfg.TraceLen)
		p := Profile{Name: spec.Name, Rate: spec.Rate, Reuse: reuse.Collect(tr)}
		var got, want bytes.Buffer
		if err := Write(&got, p); err != nil {
			t.Fatal(err)
		}
		if err := writeReference(&want, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: Write differs from the reference writer (%d vs %d bytes)", spec.Name, got.Len(), want.Len())
		}
		back, err := Read(&got)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("%s: Read(Write(p)) differs from p", spec.Name)
		}
	}
}
