package service

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/faultinject"
	"partitionshare/internal/obs"
)

// The epoch audit log: the durable half of the plan-lifecycle
// observability layer. Every epoch transition the re-optimizer publishes
// is appended here — provenance, structured diff, and the new plan's
// group and allocation — through the same atomicio.Journal, and so with
// the same crash contract, as the tenant store. The log also carries the
// epoch counter across restarts: New seeds the service's epoch from
// LastEpoch, so epochs stay monotonic over the daemon's whole life.

// FaultAuditAppend fires at the head of every audit append, before
// anything is journaled — the cheapest way to make an epoch's audit
// record fail (the epoch itself must still publish; audit failures are
// tolerated, counted, and logged, never propagated into the reopt loop).
const FaultAuditAppend = "service.audit.append"

// defaultAuditRetain bounds how many epoch records the log keeps; older
// epochs fall off the front at append time (and therefore out of the
// next snapshot), bounding both memory and disk.
const defaultAuditRetain = 256

// The audit log's files, and its snapshot schema version.
const (
	auditSnapshotFile = "epochs.json"
	auditJournalFile  = "epochs.log"
	auditVersion      = 1
)

// An EpochRecord is one audited epoch transition: why and how the plan
// was computed (Provenance), what changed (Diff), and the resulting
// group and allocation. A record with an empty Tenants slice marks the
// group emptying (the last tenant unregistered; no plan is published).
type EpochRecord struct {
	Provenance PlanProvenance `json:"provenance"`
	Diff       PlanDiff       `json:"diff"`
	Tenants    []string       `json:"tenants,omitempty"`
	Alloc      []int          `json:"alloc,omitempty"`
	Units      int            `json:"units,omitempty"`
}

// auditDoc is the audit log's atomic snapshot: the retained records in
// epoch order, plus the highest epoch ever appended (which can exceed
// the last retained record's epoch only if retention trimmed everything,
// i.e. never in practice — it is the replay skip watermark).
type auditDoc struct {
	Version   int           `json:"version"`
	LastEpoch int64         `json:"last_epoch"`
	Records   []EpochRecord `json:"records"`
}

// An AuditLog is the durable, bounded record of epoch transitions.
// Construct with OpenAuditLog; safe for concurrent use.
type AuditLog struct {
	retain int

	mu        sync.Mutex
	records   []EpochRecord // epoch ascending, at most retain entries
	lastEpoch int64
	j         *atomicio.Journal
}

// OpenAuditLog opens (creating if needed) the epoch audit log in dir.
// retain <= 0 uses the default; compactEvery <= 0 uses
// atomicio.DefaultCompactEvery.
func OpenAuditLog(dir string, retain, compactEvery int) (*AuditLog, error) {
	if retain <= 0 {
		retain = defaultAuditRetain
	}
	a := &AuditLog{retain: retain}
	j, rec, err := atomicio.OpenJournal(dir, auditSnapshotFile, auditJournalFile, compactEvery, (*auditState)(a))
	if err != nil {
		return nil, err
	}
	a.j = j
	reg := obs.Enabled()
	reg.Counter(mAuditReplayed).Add(int64(rec.Replayed))
	if rec.Torn {
		reg.Counter(mAuditTornRecovered).Add(1)
		reg.Counter(mAuditCompactions).Add(1)
		obs.Logger().Warn("epoch audit journal had a torn tail; compacted", "dir", dir)
	}
	return a, nil
}

// auditState is the AuditLog as the journal's atomicio.JournalState; the
// journal calls it during OpenAuditLog and under a.mu afterwards.
type auditState AuditLog

func (st *auditState) Restore(data []byte) error {
	var doc auditDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%w: %v", ErrStoreCorrupt, err)
	}
	if doc.Version != auditVersion {
		return fmt.Errorf("%w: snapshot version %d (want %d)", ErrStoreCorrupt, doc.Version, auditVersion)
	}
	for _, rec := range doc.Records {
		(*AuditLog)(st).applyLocked(rec)
	}
	st.lastEpoch = doc.LastEpoch
	return nil
}

func (st *auditState) Apply(rec []byte) (bool, error) {
	var er EpochRecord
	if err := json.Unmarshal(rec, &er); err != nil {
		return false, err
	}
	if er.Provenance.Epoch <= st.lastEpoch {
		return false, nil // already folded into the snapshot
	}
	(*AuditLog)(st).applyLocked(er)
	return true, nil
}

func (st *auditState) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(auditDoc{Version: auditVersion, LastEpoch: st.lastEpoch, Records: st.records})
}

// Append records one epoch transition durably: journaled and fsynced
// before it is applied in memory, so an acknowledged record survives any
// crash. Records must arrive in epoch order (the reopt loop is the only
// writer).
func (a *AuditLog) Append(rec EpochRecord) error {
	if err := faultinject.Hit(FaultAuditAppend); err != nil {
		return fmt.Errorf("service: audit append: %w", err)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	compacted, err := a.j.Append(data, func() {
		a.applyLocked(rec)
		obs.Enabled().Counter(mAuditAppended).Add(1)
	})
	if compacted {
		obs.Enabled().Counter(mAuditCompactions).Add(1)
	}
	return err
}

// applyLocked adds rec as the newest record, trimming the oldest beyond
// the retention bound.
func (a *AuditLog) applyLocked(rec EpochRecord) {
	a.records = append(a.records, rec)
	a.lastEpoch = rec.Provenance.Epoch
	if excess := len(a.records) - a.retain; excess > 0 {
		a.records = append([]EpochRecord(nil), a.records[excess:]...)
	}
}

// History returns the retained records with epoch > since, oldest first
// (a copy). since < 0 returns everything retained.
func (a *AuditLog) History(since int64) []EpochRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := 0
	for i < len(a.records) && a.records[i].Provenance.Epoch <= since {
		i++
	}
	return append([]EpochRecord(nil), a.records[i:]...)
}

// LastEpoch returns the highest epoch ever appended (0 before the first
// epoch). The service seeds its epoch counter from this at startup, so
// epochs stay monotonic across restarts.
func (a *AuditLog) LastEpoch() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastEpoch
}

// CanonicalBytes renders the retained records deterministically as
// indented JSON, independent of the snapshot/journal split.
func (a *AuditLog) CanonicalBytes() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return json.MarshalIndent(auditDoc{Version: auditVersion, LastEpoch: a.lastEpoch, Records: a.records}, "", "  ")
}

// Close closes the journal. Further appends fail; reads keep working.
func (a *AuditLog) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.j.Close()
}
