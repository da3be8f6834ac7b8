//go:build ignore

// Checksolver asserts that an optpart run manifest recorded the solver
// ladder's behavior: the manifest parses, names the optpart tool, carries
// a non-empty solver_paths map (the SolverPath each DP scheme took), and
// counted at least one DP solve. An optional second argument pins the
// rung the Optimal scheme must have taken — the CI smoke uses it to prove
// the large-C configuration really exercises the refinement rung:
//
//	go run scripts/checksolver.go /tmp/obs-smoke/optpart.json refine
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) != 2 && len(os.Args) != 3 {
		fail("usage: go run scripts/checksolver.go MANIFEST.json [want-optimal-path]")
	}
	path := os.Args[1]
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var m struct {
		ManifestVersion int    `json:"manifest_version"`
		Tool            string `json:"tool"`
		Config          struct {
			SolverPaths map[string]string `json:"solver_paths"`
		} `json:"config"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		fail("%s: not valid JSON: %v", path, err)
	}
	if m.ManifestVersion != 1 {
		fail("%s: manifest_version = %d, want 1", path, m.ManifestVersion)
	}
	if m.Tool != "optpart" {
		fail("%s: tool = %q, want \"optpart\"", path, m.Tool)
	}
	if len(m.Config.SolverPaths) == 0 {
		fail("%s: config.solver_paths empty — no DP solve recorded its rung", path)
	}
	if n := m.Counters["partition.solves"]; n <= 0 {
		fail("%s: partition.solves = %d, want > 0", path, n)
	}
	if len(os.Args) == 3 {
		want := os.Args[2]
		got, ok := m.Config.SolverPaths["Optimal"]
		if !ok {
			fail("%s: no solver path recorded for the Optimal scheme", path)
		}
		if got != want {
			fail("%s: Optimal solver path = %q, want %q", path, got, want)
		}
	}
	fmt.Printf("solver manifest OK: %s (%d schemes recorded, %d solves)\n",
		path, len(m.Config.SolverPaths), m.Counters["partition.solves"])
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checksolver: "+format+"\n", args...)
	os.Exit(1)
}
