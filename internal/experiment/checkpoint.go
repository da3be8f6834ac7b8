package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/obs"
)

// CheckpointVersion is the current checkpoint format version. Readers
// reject other versions (ErrCheckpointVersion) rather than guessing.
const CheckpointVersion = 1

// checkpointDefaultEvery is the default flush interval in completed
// groups. A flush is O(completed) JSON encoding, so flushing every ~64
// groups keeps the overhead a few percent of the sweep while bounding
// lost work after a kill to under a second of computation.
const checkpointDefaultEvery = 64

// Typed checkpoint errors, testable with errors.Is.
var (
	// ErrCheckpointVersion reports a checkpoint written by an
	// incompatible format version.
	ErrCheckpointVersion = errors.New("experiment: unsupported checkpoint version")
	// ErrCheckpointMismatch reports a checkpoint whose recorded geometry
	// (program count, group size, units, blocks per unit) differs from
	// the resuming run's.
	ErrCheckpointMismatch = errors.New("experiment: checkpoint geometry mismatch")
	// ErrCheckpointCorrupt reports a checkpoint that fails to parse or
	// violates its own invariants.
	ErrCheckpointCorrupt = errors.New("experiment: corrupt checkpoint")
)

// Checkpoint is the crash-recovery snapshot of a partially completed
// sweep: the run geometry plus every completed group's result, in
// lexicographic group order. It is written atomically
// (write-temp+rename), so a file that exists is always internally
// consistent — a kill mid-flush leaves the previous snapshot.
type Checkpoint struct {
	Version       int           `json:"version"`
	NumPrograms   int           `json:"num_programs"`
	GroupSize     int           `json:"group_size"`
	Units         int           `json:"units"`
	BlocksPerUnit int64         `json:"blocks_per_unit"`
	Groups        []GroupResult `json:"groups"`
}

// Compatible reports whether a run with the given geometry can resume
// from this checkpoint; a mismatch wraps ErrCheckpointMismatch.
func (c *Checkpoint) Compatible(numPrograms, groupSize, units int, blocksPerUnit int64) error {
	if c.NumPrograms != numPrograms || c.GroupSize != groupSize ||
		c.Units != units || c.BlocksPerUnit != blocksPerUnit {
		return fmt.Errorf("%w: checkpoint has (programs=%d size=%d units=%d bpu=%d), run has (programs=%d size=%d units=%d bpu=%d)",
			ErrCheckpointMismatch,
			c.NumPrograms, c.GroupSize, c.Units, c.BlocksPerUnit,
			numPrograms, groupSize, units, blocksPerUnit)
	}
	return nil
}

func (c *Checkpoint) validate() error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("%w: %d (want %d)", ErrCheckpointVersion, c.Version, CheckpointVersion)
	}
	if c.NumPrograms <= 0 || c.GroupSize < 1 || c.GroupSize > c.NumPrograms ||
		c.Units <= 0 || c.BlocksPerUnit <= 0 {
		return fmt.Errorf("%w: invalid geometry (programs=%d size=%d units=%d bpu=%d)",
			ErrCheckpointCorrupt, c.NumPrograms, c.GroupSize, c.Units, c.BlocksPerUnit)
	}
	for _, gr := range c.Groups {
		if len(gr.Members) != c.GroupSize {
			return fmt.Errorf("%w: group %v has %d members, want %d",
				ErrCheckpointCorrupt, gr.Members, len(gr.Members), c.GroupSize)
		}
		for i, m := range gr.Members {
			if m < 0 || m >= c.NumPrograms || (i > 0 && m <= gr.Members[i-1]) {
				return fmt.Errorf("%w: group %v is not a strictly increasing subset of 0..%d",
					ErrCheckpointCorrupt, gr.Members, c.NumPrograms-1)
			}
		}
	}
	return nil
}

// ReadCheckpoint loads and validates a checkpoint file. Decode failures
// wrap ErrCheckpointCorrupt; a version mismatch wraps
// ErrCheckpointVersion.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	// A root span: loads happen at command startup, before any stage
	// context exists.
	_, ts := obs.Start(context.Background(), spanCheckpointLoad, "checkpoint")
	defer ts.End()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, path, err)
	}
	if err := c.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	obs.Enabled().Counter(mCheckpointLoads).Inc()
	ts.Arg("groups", int64(len(c.Groups)))
	obs.Logger().Debug("checkpoint loaded", "path", path, "groups", len(c.Groups))
	return &c, nil
}

// WriteCheckpoint writes the checkpoint atomically (write-temp+rename).
func WriteCheckpoint(path string, c *Checkpoint) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(c)
	})
}

// groupKey is a map key identifying a group by its member indices.
func groupKey(members []int) string {
	b := make([]byte, 0, 4*len(members))
	for _, m := range members {
		b = strconv.AppendInt(b, int64(m), 10)
		b = append(b, ',')
	}
	return string(b)
}

// checkpointer serializes completed group results to disk from a single
// goroutine. Workers hand it completed indices over a buffered channel
// (the send follows the result write, so the checkpointer observes fully
// written GroupResults); it owns the done set and flushes a snapshot
// every opts.CheckpointEvery completions and once at finish. A nil
// CheckpointPath collapses it to a no-op.
type checkpointer struct {
	res     *Result
	done    []bool
	path    string
	every   int
	ch      chan int
	errc    chan error
	numProg int
	size    int
	bpu     int64
	// ctx carries the sweep's trace span so flushes render as its
	// children in -trace-events timelines. Never consulted for
	// cancellation: the checkpointer must flush even on a cancelled run.
	ctx context.Context
}

func startCheckpointer(ctx context.Context, res *Result, done []bool, numPrograms, groupSize int, blocksPerUnit int64, opts RunOpts) *checkpointer {
	if opts.CheckpointPath == "" {
		return nil
	}
	every := opts.CheckpointEvery
	if every <= 0 {
		every = checkpointDefaultEvery
	}
	c := &checkpointer{
		res:     res,
		done:    done,
		path:    opts.CheckpointPath,
		every:   every,
		ch:      make(chan int, len(done)),
		errc:    make(chan error, 1),
		numProg: numPrograms,
		size:    groupSize,
		bpu:     blocksPerUnit,
		ctx:     ctx,
	}
	go c.run()
	return c
}

// completed reports group g's result as written and ready to persist.
func (c *checkpointer) completed(g int) {
	if c == nil {
		return
	}
	c.ch <- g
}

// finish waits for the final flush and returns the first write error, if
// any. Call after all workers have exited.
func (c *checkpointer) finish() error {
	if c == nil {
		return nil
	}
	close(c.ch)
	return <-c.errc
}

func (c *checkpointer) run() {
	var firstErr error
	sinceFlush := 0
	for g := range c.ch {
		c.done[g] = true
		sinceFlush++
		if sinceFlush >= c.every {
			if err := c.flush(); err != nil && firstErr == nil {
				firstErr = err
			}
			sinceFlush = 0
		}
	}
	// Final flush: on clean completion and on cancellation alike, so a
	// SIGINT loses at most the groups in flight.
	if err := c.flush(); err != nil && firstErr == nil {
		firstErr = err
	}
	c.errc <- firstErr
}

// flush writes the current snapshot: every done group's result in
// lexicographic group order, which makes checkpoint bytes deterministic
// for a given completion set.
func (c *checkpointer) flush() error {
	_, ts := obs.Start(c.ctx, spanCheckpointFlush, "checkpoint")
	defer ts.End()
	snap := &Checkpoint{
		Version:       CheckpointVersion,
		NumPrograms:   c.numProg,
		GroupSize:     c.size,
		Units:         c.res.Units,
		BlocksPerUnit: c.bpu,
	}
	for g, ok := range c.done {
		if ok {
			snap.Groups = append(snap.Groups, c.res.Groups[g])
		}
	}
	ts.Arg("groups", int64(len(snap.Groups)))
	if err := WriteCheckpoint(c.path, snap); err != nil {
		return err
	}
	obs.Enabled().Counter(mCheckpointFlushes).Inc()
	obs.Logger().Debug("checkpoint flushed", "path", c.path, "groups", len(snap.Groups))
	return nil
}
