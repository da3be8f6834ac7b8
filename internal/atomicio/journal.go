package atomicio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// A Journal makes an owner's in-memory state durable as a snapshot file
// (written with WriteFile) plus a Log of the records appended since. The
// owner keeps the state and the lock that serializes calls; the journal
// owns the files:
//
//   - OpenJournal restores the snapshot and replays the log over it,
//     skipping records the snapshot already holds. A torn tail, or a
//     record that frames intact but does not decode (damage the CRC
//     cannot see), ends the replay and triggers an immediate compaction,
//     so the next crash starts from a clean log.
//   - Every compactEvery records in the log, replayed ones included, the
//     state is folded into a fresh snapshot. The snapshot rename is the
//     commit point; the log is removed and reopened after it, so a crash
//     in between leaves stale records the next replay skips.
type Journal struct {
	snapPath, logPath string
	compactEvery      int
	state             JournalState
	log               *Log
	ops               int // records in the log since the last snapshot
}

// A JournalState is the owner's side of a Journal.
type JournalState interface {
	// Restore loads a snapshot file's contents into the empty state.
	Restore(snapshot []byte) error
	// Apply replays one log record. It reports false for a record the
	// snapshot already holds (at or below its watermark), and an error
	// for a record that does not decode.
	Apply(rec []byte) (applied bool, err error)
	// WriteSnapshot writes the whole state as a snapshot file.
	WriteSnapshot(w io.Writer) error
}

// A Recovery reports what OpenJournal found: the log records it applied
// over the snapshot, and whether it discarded a torn tail and compacted.
type Recovery struct {
	Replayed int
	Torn     bool
}

// DefaultCompactEvery is the compaction cadence for compactEvery <= 0.
const DefaultCompactEvery = 64

// ErrJournalClosed reports an Append after Close, or after a compaction
// that failed once it had closed the old log.
var ErrJournalClosed = errors.New("atomicio: journal closed")

var errUndecodable = errors.New("atomicio: undecodable journal record")

// OpenJournal recovers st from the snapshot file snapName and the log
// file logName in dir, creating dir if needed. A missing snapshot leaves
// st empty; one st cannot Restore is an error.
func OpenJournal(dir, snapName, logName string, compactEvery int, st JournalState) (*Journal, Recovery, error) {
	if compactEvery <= 0 {
		compactEvery = DefaultCompactEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("atomicio: %w", err)
	}
	j := &Journal{snapPath: filepath.Join(dir, snapName), logPath: filepath.Join(dir, logName),
		compactEvery: compactEvery, state: st}
	if data, err := os.ReadFile(j.snapPath); err == nil {
		if err := st.Restore(data); err != nil {
			return nil, Recovery{}, fmt.Errorf("%s: %w", j.snapPath, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, Recovery{}, fmt.Errorf("atomicio: %w", err)
	}
	var rec Recovery
	torn, err := ReplayLog(j.logPath, func(r []byte) error {
		applied, err := st.Apply(r)
		if err != nil {
			return errUndecodable
		}
		if applied {
			rec.Replayed++
		}
		return nil
	})
	rec.Torn = torn || errors.Is(err, errUndecodable)
	if err != nil && !rec.Torn {
		return nil, Recovery{}, err
	}
	j.ops = rec.Replayed
	if rec.Torn {
		err = j.compact()
	} else {
		j.log, err = OpenLog(j.logPath)
	}
	if err != nil {
		return nil, Recovery{}, err
	}
	return j, rec, nil
}

// Append writes rec durably, then calls apply to fold it into the
// owner's state, so the state never holds a record the disk does not.
// It then compacts if the cadence is due: compacted reports a completed
// compaction, and an error returned after apply ran is a compaction
// error — the record itself is durable.
func (j *Journal) Append(rec []byte, apply func()) (compacted bool, err error) {
	if j.log == nil {
		return false, ErrJournalClosed
	}
	if err := j.log.Append(rec); err != nil {
		return false, err
	}
	apply()
	if j.ops++; j.ops < j.compactEvery {
		return false, nil
	}
	err = j.compact()
	return err == nil, err
}

func (j *Journal) compact() error {
	if err := WriteFile(j.snapPath, j.state.WriteSnapshot); err != nil {
		return err
	}
	if err := j.Close(); err != nil {
		return err
	}
	if err := os.Remove(j.logPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("atomicio: %w", err)
	}
	log, err := OpenLog(j.logPath)
	if err != nil {
		return err
	}
	j.log, j.ops = log, 0
	return nil
}

// Close closes the log; further Appends fail with ErrJournalClosed.
func (j *Journal) Close() error {
	err := j.log.Close()
	j.log = nil
	return err
}
