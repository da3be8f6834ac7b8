package atomicio

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// intState is a minimal JournalState: an ascending list of ints whose
// records are decimal strings and whose watermark is the last value.
type intState struct {
	Last int64   `json:"last"`
	Vals []int64 `json:"vals"`
}

func (s *intState) Restore(b []byte) error { return json.Unmarshal(b, s) }

func (s *intState) Apply(rec []byte) (bool, error) {
	v, err := strconv.ParseInt(string(rec), 10, 64)
	if err != nil || v <= s.Last {
		return false, err
	}
	s.Last, s.Vals = v, append(s.Vals, v)
	return true, nil
}

func (s *intState) WriteSnapshot(w io.Writer) error { return json.NewEncoder(w).Encode(s) }

func openInts(t *testing.T, dir string, every int) (*Journal, *intState, Recovery) {
	t.Helper()
	st := &intState{}
	j, rec, err := OpenJournal(dir, "snap.json", "ops.log", every, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, st, rec
}

func appendInt(t *testing.T, j *Journal, st *intState, v int64) bool {
	t.Helper()
	compacted, err := j.Append([]byte(strconv.FormatInt(v, 10)), func() { st.Last, st.Vals = v, append(st.Vals, v) })
	if err != nil {
		t.Fatal(err)
	}
	return compacted
}

// writeLog returns a directory whose ops.log holds recs, as a crash
// would leave it.
func writeLog(t *testing.T, recs ...string) string {
	t.Helper()
	dir := t.TempDir()
	log, err := OpenLog(filepath.Join(dir, "ops.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, r := range recs {
		if err := log.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestJournalCadenceAndRecovery: compaction runs every compactEvery
// records, replayed ones included, and a reopen recovers snapshot plus log.
func TestJournalCadenceAndRecovery(t *testing.T) {
	dir := t.TempDir()
	j, st, _ := openInts(t, dir, 3)
	var compactions []int64
	for v := int64(1); v <= 5; v++ {
		if appendInt(t, j, st, v) {
			compactions = append(compactions, v)
		}
	}
	if !reflect.DeepEqual(compactions, []int64{3}) {
		t.Fatalf("compacted after %v, want [3]", compactions)
	}
	j.Close()
	j2, st2, rec := openInts(t, dir, 3)
	if !reflect.DeepEqual(st2.Vals, []int64{1, 2, 3, 4, 5}) || rec != (Recovery{Replayed: 2}) {
		t.Fatalf("recovered %v %+v", st2.Vals, rec)
	}
	if !appendInt(t, j2, st2, 6) {
		t.Fatal("two replayed records plus one append did not reach the cadence of 3")
	}
}

// TestJournalSkipsSnapshottedRecords models a crash between the
// snapshot rename and the log reset: the stale records replay-skip.
func TestJournalSkipsSnapshottedRecords(t *testing.T) {
	dir := writeLog(t, "1", "2", "3")
	if err := WriteFileBytes(filepath.Join(dir, "snap.json"), []byte(`{"last":2,"vals":[1,2]}`)); err != nil {
		t.Fatal(err)
	}
	_, st, rec := openInts(t, dir, 0)
	if !reflect.DeepEqual(st.Vals, []int64{1, 2, 3}) || rec != (Recovery{Replayed: 1}) {
		t.Fatalf("recovered %v %+v", st.Vals, rec)
	}
}

// TestJournalUndecodableRecordIsTorn: a record that frames intact but
// does not decode ends the replay like a torn tail, and the journal
// compacts it away before accepting appends.
func TestJournalUndecodableRecordIsTorn(t *testing.T) {
	dir := writeLog(t, "1", "garbage", "3")
	j, st, rec := openInts(t, dir, 0)
	if !reflect.DeepEqual(st.Vals, []int64{1}) || rec != (Recovery{Replayed: 1, Torn: true}) {
		t.Fatalf("recovered %v %+v", st.Vals, rec)
	}
	if fi, err := os.Stat(filepath.Join(dir, "ops.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("log not reset by the torn-tail compaction: %v", err)
	}
	j.Close()
	if _, err := j.Append([]byte("2"), func() { t.Fatal("apply ran on a closed journal") }); !errors.Is(err, ErrJournalClosed) {
		t.Fatalf("Append after Close = %v, want ErrJournalClosed", err)
	}
}

func TestJournalBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFileBytes(filepath.Join(dir, "snap.json"), []byte("{")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(dir, "snap.json", "ops.log", 0, &intState{}); err == nil {
		t.Fatal("unparseable snapshot accepted")
	}
}
