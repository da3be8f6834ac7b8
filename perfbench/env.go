package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gitCommit returns the commit checked out at root, read straight from
// .git, or "none" outside a git work tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root (skipping
// hidden and build directories), identifying the measured code where no
// commit is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// An rssSampler tracks the process's peak resident set size over a
// measured phase by sampling it every 50 ms. It starts by returning freed
// memory to the operating system, so the peak reflects the phase, not
// the set-up before it.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		peak := residentMB()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.peak <- max(peak, residentMB())
				return
			case <-t.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the peak it saw.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	return <-s.peak
}

// residentMB returns the current resident set size in MB, from
// /proc/self/statm where it exists and the lifetime peak otherwise.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return float64(pages*int64(os.Getpagesize())) / (1 << 20)
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// runtimeSnap is a reading of the Go runtime's allocation and GC
// counters, for per-phase deltas.
type runtimeSnap struct {
	allocBytes   uint64
	gcCPU, total float64
	numGC        uint32
	pauses       [256]uint64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out := runtimeSnap{numGC: ms.NumGC, pauses: ms.PauseNs}
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.total = s[2].Value.Float64()
	}
	return out
}

// runtimeDelta sets the Go-runtime layer metrics for the interval
// between two readings over ops operations: allocation per operation,
// the GC's share of CPU time, and the p99 GC pause.
func runtimeDelta(out *outcome, a, b runtimeSnap, ops int64) {
	if ops > 0 {
		out.set("go.alloc_kb_per_op", float64(b.allocBytes-a.allocBytes)/1024/float64(ops))
	}
	if cpu := b.total - a.total; cpu > 0 {
		out.set("go.gc_cpu_frac", (b.gcCPU-a.gcCPU)/cpu)
	}
	n := min(int(b.numGC-a.numGC), len(b.pauses))
	pauses := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		idx := (int(b.numGC) - 1 - k + len(b.pauses)) % len(b.pauses)
		pauses = append(pauses, ms(time.Duration(b.pauses[idx])))
	}
	out.set("go.gc_pause_ms.p99", percentile(pauses, 99))
}
