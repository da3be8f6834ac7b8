package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
	cmd := exec.Command(os.Args[0], "-test.run", "^TestExperimentsMainHelper$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_HELPER_OUT="+out)
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

// TestExperimentsMainHelper is the subprocess half of TestResultsGolden:
// it runs the real main at full geometry with -validate, writing into the
// directory the parent names.
func TestExperimentsMainHelper(t *testing.T) {
	out := os.Getenv("EXPERIMENTS_HELPER_OUT")
	if out == "" {
		t.Skip("helper process only")
	}
	os.Args = []string{"experiments", "-validate", "-out", out, "-manifest", "none", "-log-level", "error"}
	main()
}
