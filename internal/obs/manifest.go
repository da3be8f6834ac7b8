package obs

import (
	"encoding/json"
	"io"
	"runtime"
	"runtime/debug"
	"time"

	"partitionshare/internal/atomicio"
)

// ManifestVersion is the current run-manifest schema version. Readers
// (the CI smoke checker, downstream tooling) reject other versions
// rather than guessing.
const ManifestVersion = 1

// ManifestMeta is the run's circumstantial record: build/version
// identity, host shape, and timing. Everything here is allowed to vary
// between runs — the deterministic portion of a manifest deliberately
// excludes it (see Canonical).
type ManifestMeta struct {
	Version   string `json:"version"` // git-describe-style build id
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	Started   string `json:"started"` // RFC 3339
	WallNS    int64  `json:"wall_ns"`
	CPUNS     int64  `json:"cpu_ns"`
}

// A Manifest is the durable record of one pipeline run: what was asked
// for (Config), what build ran it (Meta), what the stages cost
// (Stages), and what the pipeline actually did (Counters, Gauges,
// Histograms — groups completed/failed, DP cells evaluated,
// cache-sim accesses, per-group latency distribution). It is written
// through internal/atomicio, so a crash mid-flush never leaves a torn
// manifest.
type Manifest struct {
	ManifestVersion int            `json:"manifest_version"`
	Tool            string         `json:"tool"`
	Meta            ManifestMeta   `json:"meta"`
	Config          map[string]any `json:"config"`
	Stages          []SpanRecord   `json:"stages,omitempty"`

	Counters   map[string]int64            `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// A ManifestBuilder accumulates a run's identity from command startup
// to exit. The zero value is unusable; use NewManifest.
type ManifestBuilder struct {
	tool    string
	config  map[string]any
	started time.Time
	cpu0    time.Duration
}

// NewManifest starts a manifest for one command invocation. config is
// the flag/geometry record; it should contain only deterministic values
// (no times, no absolute paths that vary per run) so the manifest's
// comparable portion stays stable.
func NewManifest(tool string, config map[string]any) *ManifestBuilder {
	return &ManifestBuilder{
		tool:    tool,
		config:  config,
		started: time.Now(),
		cpu0:    processCPUTime(),
	}
}

// Build freezes the manifest from the registry's current state. A nil
// registry yields a manifest with empty metric sections.
func (b *ManifestBuilder) Build(reg *Registry) *Manifest {
	snap := reg.Snapshot()
	return &Manifest{
		ManifestVersion: ManifestVersion,
		Tool:            b.tool,
		Meta: ManifestMeta{
			Version:   BuildVersion(),
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			CPUs:      runtime.NumCPU(),
			Started:   b.started.UTC().Format(time.RFC3339),
			WallNS:    time.Since(b.started).Nanoseconds(),
			CPUNS:     (processCPUTime() - b.cpu0).Nanoseconds(),
		},
		Config:     b.config,
		Stages:     snap.Spans,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
	}
}

// Write flushes the manifest to path atomically (write-temp+fsync+
// rename via internal/atomicio) as indented JSON. Map keys marshal
// sorted, so byte-level output is a function of the manifest's values.
func (m *Manifest) Write(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// CanonicalManifest is the deterministic portion of a manifest: given a
// fixed config and workload, two runs produce byte-identical canonical
// forms. Timing is reduced to structure — stage names in completion
// order, histogram observation counts — and Meta is dropped entirely.
type CanonicalManifest struct {
	ManifestVersion int              `json:"manifest_version"`
	Tool            string           `json:"tool"`
	Config          map[string]any   `json:"config"`
	StageNames      []string         `json:"stage_names,omitempty"`
	Counters        map[string]int64 `json:"counters,omitempty"`
	Gauges          map[string]int64 `json:"gauges,omitempty"`
	HistogramCounts map[string]int64 `json:"histogram_counts,omitempty"`
}

// Canonical projects the manifest onto its deterministic portion.
// Golden tests compare CanonicalJSON across runs; nothing in the result
// depends on wall-clock, CPU time, host, or build stamps.
func (m *Manifest) Canonical() CanonicalManifest {
	c := CanonicalManifest{
		ManifestVersion: m.ManifestVersion,
		Tool:            m.Tool,
		Config:          m.Config,
		Counters:        m.Counters,
		Gauges:          m.Gauges,
	}
	for _, s := range m.Stages {
		c.StageNames = append(c.StageNames, s.Name)
	}
	if len(m.Histograms) > 0 {
		c.HistogramCounts = make(map[string]int64, len(m.Histograms))
		for name, h := range m.Histograms {
			c.HistogramCounts[name] = h.Count
		}
	}
	return c
}

// CanonicalJSON marshals the deterministic portion with stable key
// order (encoding/json sorts map keys).
func (m *Manifest) CanonicalJSON() ([]byte, error) {
	return json.MarshalIndent(m.Canonical(), "", "  ")
}

// BuildVersion returns a git-describe-style identifier for the running
// binary, synthesized from the module build info: the short VCS
// revision, a "-dirty" suffix when the working tree was modified, and
// the commit date. Binaries built outside a VCS checkout (go run from a
// tarball, test binaries) report "devel".
func BuildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	var rev, at string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.time":
			at = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			return v
		}
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	out := rev
	if dirty {
		out += "-dirty"
	}
	if at != "" {
		out += " (" + at + ")"
	}
	return out
}
