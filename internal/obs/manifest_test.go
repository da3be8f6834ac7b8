package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// fixedManifest builds the manifest a deterministic run would produce:
// fixed config, fixed counter values, stages in a fixed order. Only
// Meta and the timing fields vary between runs, and Canonical drops
// exactly those.
func fixedManifest() *Manifest {
	reg := NewRegistry()
	reg.Counter("experiment_groups_completed_total").Add(1820)
	reg.Counter("experiment_groups_failed_total").Add(0)
	reg.Counter("partition_dp_cells_total").Add(2839200)
	reg.Gauge("experiment_workers").Set(4)
	h := reg.Histogram("experiment_group_ns", DurationBuckets())
	for i := 0; i < 1820; i++ {
		h.Observe(int64(i%7) * 1_000_000)
	}
	prev := Enabled()
	Enable(reg)
	for _, stage := range []string{"profile", "sweep", "reports"} {
		_, s := Start(context.Background(), stage, CatStage)
		s.End()
	}
	Enable(prev)

	b := NewManifest("experiments", map[string]any{
		"small":     true,
		"groupsize": 4,
		"units":     64,
	})
	return b.Build(reg)
}

// The canonical (comparable) portion of the manifest must be
// byte-deterministic for a fixed config — the golden file is the
// contract. Regenerate with: go test ./internal/obs -run Golden -update-golden
func TestManifestCanonicalGolden(t *testing.T) {
	m := fixedManifest()
	got, err := m.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "manifest_canonical.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("canonical manifest drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Two independent builds of the same run must agree byte-for-byte.
	again, err := fixedManifest().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Error("canonical manifest differs between identical builds")
	}
}

// The full manifest must round-trip through its atomic writer as valid
// JSON with the schema fields intact.
func TestManifestWriteRoundTrip(t *testing.T) {
	m := fixedManifest()
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written manifest does not parse: %v", err)
	}
	if back.ManifestVersion != ManifestVersion {
		t.Errorf("manifest_version = %d, want %d", back.ManifestVersion, ManifestVersion)
	}
	if back.Tool != "experiments" {
		t.Errorf("tool = %q, want experiments", back.Tool)
	}
	if back.Counters["experiment_groups_completed_total"] != 1820 {
		t.Errorf("counters = %v, want experiment_groups_completed_total=1820", back.Counters)
	}
	if len(back.Stages) != 3 {
		t.Errorf("stages = %v, want 3 entries", back.Stages)
	}
	if back.Meta.GoVersion == "" || back.Meta.Version == "" {
		t.Errorf("meta missing build identity: %+v", back.Meta)
	}
	if back.Histograms["experiment_group_ns"].Count != 1820 {
		t.Errorf("histogram count = %d, want 1820", back.Histograms["experiment_group_ns"].Count)
	}
}

// No timestamps or host/build identity may appear in the canonical
// portion — that is what makes the golden comparison stable across
// machines and runs.
func TestManifestCanonicalOmitsMeta(t *testing.T) {
	got, err := fixedManifest().CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(got, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, forbidden := range []string{"meta", "stages", "wall_ns", "cpu_ns", "started"} {
		if _, ok := decoded[forbidden]; ok {
			t.Errorf("canonical manifest contains %q, which is run-varying", forbidden)
		}
	}
}

func TestBuildVersion(t *testing.T) {
	if v := BuildVersion(); v == "" {
		t.Error("BuildVersion returned empty string")
	}
}
