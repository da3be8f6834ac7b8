package service

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The crash tests below run once per journaled state — the tenant store
// and the epoch audit log — through one adapter: write(i) is the i-th
// acknowledged operation (tenant "t<i>" registered, epoch i appended) and
// has(i) reports whether it survived recovery.
type durable struct {
	state interface {
		CanonicalBytes() ([]byte, error)
		Close() error
	}
	write func(i int) error
	has   func(i int) bool
}

var durableCases = []struct {
	name    string
	logFile string
	open    func(t testing.TB, dir string, compactEvery int) (durable, error)
}{
	{"store", journalFile, func(t testing.TB, dir string, compactEvery int) (durable, error) {
		s, err := OpenStore(dir, compactEvery)
		if err != nil {
			return durable{}, err
		}
		return durable{
			state: s,
			write: func(i int) error { return s.Put("t"+strconv.Itoa(i), testProfile(t, uint64(i))) },
			has: func(i int) bool {
				_, err := s.Get("t" + strconv.Itoa(i))
				return err == nil
			},
		}, nil
	}},
	{"audit", auditJournalFile, func(t testing.TB, dir string, compactEvery int) (durable, error) {
		a, err := OpenAuditLog(dir, 0, compactEvery)
		if err != nil {
			return durable{}, err
		}
		return durable{
			state: a,
			write: func(i int) error { return a.Append(testEpochRecord(int64(i))) },
			has: func(i int) bool {
				h := a.History(int64(i) - 1)
				return len(h) > 0 && h[0].Provenance.Epoch == int64(i)
			},
		}, nil
	}},
}

// TestTornJournalTail simulates a crash mid-append by truncating the
// journal file: reopen must keep every fully-appended record, compact,
// stay writable, and a second reopen must be byte-identical.
func TestTornJournalTail(t *testing.T) {
	for _, tc := range durableCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := tc.open(t, dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.write(1); err != nil {
				t.Fatal(err)
			}
			want := canonical(t, d.state)
			if err := d.write(2); err != nil {
				t.Fatal(err)
			}
			d.state.Close()

			jPath := filepath.Join(dir, tc.logFile)
			fi, err := os.Stat(jPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(jPath, fi.Size()-7); err != nil {
				t.Fatal(err)
			}

			re, err := tc.open(t, dir, 0)
			if err != nil {
				t.Fatalf("reopen with torn tail: %v", err)
			}
			if got := canonical(t, re.state); !bytes.Equal(got, want) {
				t.Fatalf("torn-tail recovery state:\n%s\nwant\n%s", got, want)
			}
			if err := re.write(2); err != nil {
				t.Fatalf("write after torn recovery: %v", err)
			}
			after := canonical(t, re.state)
			re.state.Close()
			re2, err := tc.open(t, dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.state.Close()
			if got := canonical(t, re2.state); !bytes.Equal(got, after) {
				t.Fatalf("second reopen diverges after torn recovery")
			}
		})
	}
}

// TestKill9ByteIdentical is the crash-safety differential: a child
// process writes, acking each durable operation on stdout; the parent
// SIGKILLs it mid-stream, reopens twice, and requires (a) every acked
// operation survived and (b) the two recoveries are byte-identical.
func TestKill9ByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	for _, tc := range durableCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestKill9Helper$", "-test.v")
			cmd.Env = append(os.Environ(), "SERVICE_KILL9_CASE="+tc.name, "SERVICE_KILL9_DIR="+dir)
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			defer cmd.Process.Kill()

			// Read acks until we have a few, then kill -9 mid-write-loop.
			acked := 0
			for sc := bufio.NewScanner(out); acked < 5 && sc.Scan(); {
				if strings.HasPrefix(sc.Text(), "ack ") {
					acked++
				}
			}
			if acked < 5 {
				t.Fatalf("child exited early after %d acks", acked)
			}
			if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			cmd.Wait()

			var canon [2][]byte
			for k := range canon {
				d, err := tc.open(t, dir, 0)
				if err != nil {
					t.Fatalf("recovery open %d: %v", k+1, err)
				}
				for i := 1; i <= acked; i++ {
					if !d.has(i) {
						t.Fatalf("acked operation %d lost after kill -9", i)
					}
				}
				canon[k] = canonical(t, d.state)
				d.state.Close()
			}
			if !bytes.Equal(canon[0], canon[1]) {
				t.Fatalf("recovery is not deterministic:\n%s\nvs\n%s", canon[0], canon[1])
			}
		})
	}
}

// TestKill9Helper is the child half of the kill -9 test; it only runs
// when re-exec'd with the env vars set.
func TestKill9Helper(t *testing.T) {
	dir := os.Getenv("SERVICE_KILL9_DIR")
	if dir == "" {
		t.Skip("helper process only")
	}
	for _, tc := range durableCases {
		if tc.name != os.Getenv("SERVICE_KILL9_CASE") {
			continue
		}
		d, err := tc.open(t, dir, 3) // small compactEvery: the kill races compaction too
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 10000; i++ {
			if err := d.write(i); err != nil {
				t.Fatal(err)
			}
			os.Stdout.WriteString("ack " + strconv.Itoa(i) + "\n")
			os.Stdout.Sync()
			time.Sleep(time.Millisecond)
		}
	}
}

// TestOnDiskCompat recovers testdata/compat/state, a store directory
// (tenants.json + journal.log, epochs.json + epochs.log, each with a
// snapshot and live journal records) written by the store and audit log
// as they were before they shared atomicio.Journal. The recovered
// canonical state must equal what that code recovered: the store byte
// for byte, the audit log minus the since-removed warm_* provenance keys.
func TestOnDiskCompat(t *testing.T) {
	src := filepath.Join("testdata", "compat")
	dir := t.TempDir()
	entries, err := os.ReadDir(filepath.Join(src, "state"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, "state", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range durableCases {
		want, err := os.ReadFile(filepath.Join(src, tc.name+".canonical.json"))
		if err != nil {
			t.Fatal(err)
		}
		var kept [][]byte
		for _, line := range bytes.SplitAfter(want, []byte("\n")) {
			if !bytes.Contains(line, []byte(`"warm_`)) {
				kept = append(kept, line)
			}
		}
		d, err := tc.open(t, dir, 0)
		if err != nil {
			t.Fatalf("%s: open: %v", tc.name, err)
		}
		if got := canonical(t, d.state); !bytes.Equal(got, bytes.Join(kept, nil)) {
			t.Fatalf("%s: recovered state diverges from the golden:\n%s", tc.name, got)
		}
		d.state.Close()
	}
}
