package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"partitionshare/internal/obs"
)

// TestResultsGolden pins the paper's outputs at full scale: it runs the
// real experiments command at the full geometry with -validate into a
// temp dir and compares every committed results/*.csv byte for byte —
// Table I, Figures 5–7 and the §VII-C validation. A one-ulp change to
// any reported number fails it. To regenerate after a deliberate change:
//
//	go run ./cmd/experiments -validate
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-geometry sweep in -short mode")
	}
	if raceEnabled {
		t.Skip("full-geometry sweep under the race detector")
	}
	want, err := filepath.Glob(filepath.Join("..", "..", "results", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no committed results/*.csv to compare against")
	}
	out := t.TempDir()
	cmd := mainCommand("-validate", "-out", out, "-manifest", "none", "-log-level", "error")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("experiments run failed: %v\n%s", err, stderr.Bytes())
	}
	for _, path := range want {
		name := filepath.Base(path)
		exp, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Errorf("%s: not produced: %v", name, err)
			continue
		}
		if bytes.Equal(got, exp) {
			continue
		}
		gl, el := strings.Split(string(got), "\n"), strings.Split(string(exp), "\n")
		for i := 0; i < len(gl) || i < len(el); i++ {
			var g, e string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(el) {
				e = el[i]
			}
			if g != e {
				t.Errorf("%s: first difference at line %d:\n  got  %q\n  want %q", name, i+1, g, e)
				break
			}
		}
	}
}

// TestInterruptExits130 drives the real main through SIGINT at two
// points — during profiling and mid-sweep — and checks the interrupt
// contract: exit status 130, no CSV written, no checkpoint left behind,
// and a manifest that still parses. -groupsize 8 makes the sweep 12,870
// groups, far longer than signal delivery takes, so neither run can
// finish before the signal lands.
func TestInterruptExits130(t *testing.T) {
	for _, tc := range []struct{ name, after, stage string }{
		{"profiling", "profiling ", "profile"},
		{"sweep", "sweep: ", "sweep"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := t.TempDir()
			manifest := filepath.Join(out, "manifest.json")
			cmd := mainCommand("-small", "-groupsize", "8", "-out", out,
				"-manifest", manifest, "-log-level", "error")
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			signalled := false
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				if !signalled && strings.HasPrefix(sc.Text(), tc.after) {
					if err := cmd.Process.Signal(os.Interrupt); err != nil {
						t.Fatal(err)
					}
					signalled = true
				}
			}
			err = cmd.Wait()
			if !signalled {
				t.Fatalf("no %q progress line before exit (%v)\n%s", tc.after, err, stderr.Bytes())
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 130 {
				t.Fatalf("exit = %v, want status 130\n%s", err, stderr.Bytes())
			}
			if !strings.Contains(stderr.String(), "interrupted") {
				t.Errorf("stderr does not report the interruption:\n%s", stderr.Bytes())
			}
			if csvs, _ := filepath.Glob(filepath.Join(out, "*.csv")); len(csvs) != 0 {
				t.Errorf("interrupted run wrote CSVs: %v", csvs)
			}
			if _, err := os.Stat(filepath.Join(out, "checkpoint.json")); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("checkpoint.json: stat error = %v, want not-exist", err)
			}
			data, err := os.ReadFile(manifest)
			if err != nil {
				t.Fatal(err)
			}
			var m obs.Manifest
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatalf("manifest does not parse: %v", err)
			}
			if m.Tool != "experiments" {
				t.Errorf("manifest tool = %q, want experiments", m.Tool)
			}
			// The interrupted stage is the manifest's last one.
			var stages []string
			for _, s := range m.Stages {
				stages = append(stages, s.Name)
			}
			if len(stages) == 0 || stages[len(stages)-1] != tc.stage {
				t.Errorf("manifest stages = %q, want the interrupted %q last", stages, tc.stage)
			}
		})
	}
}

// mainCommand returns a command that runs the real main with args in a
// subprocess of this test binary (see TestExperimentsMainHelper).
func mainCommand(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], append([]string{"-test.run", "^TestExperimentsMainHelper$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_HELPER=1")
	return cmd
}

// TestExperimentsMainHelper is the subprocess half of mainCommand: it
// runs the real main with the arguments after the test binary's "--".
func TestExperimentsMainHelper(t *testing.T) {
	if os.Getenv("EXPERIMENTS_HELPER") == "" {
		t.Skip("helper process only")
	}
	os.Args = append([]string{"experiments"}, flag.Args()...)
	main()
}
