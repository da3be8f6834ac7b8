// Package service is the partition-sharing daemon's core: a crash-safe
// multi-tenant profile store, admission-controlled plan solving with
// deadline propagation, and an epoch-based background re-optimizer that
// solves each epoch from scratch with internal/partition's solver ladder
// and degrades to the last good plan instead of failing. cmd/partitiond
// wraps it in an HTTP/JSON API; the chaos tests drive every failure path
// through internal/faultinject.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"partitionshare/internal/atomicio"
	"partitionshare/internal/faultinject"
	"partitionshare/internal/obs"
	"partitionshare/internal/profileio"
)

// Typed sentinels for the store and service API; HTTP maps them to
// status codes, tests assert them with errors.Is.
var (
	// ErrTenantNotFound reports an operation on an unregistered tenant.
	ErrTenantNotFound = errors.New("service: tenant not found")
	// ErrStoreCorrupt reports a store or audit-log snapshot that does not
	// parse; a torn journal tail is recovered, never reported as this.
	ErrStoreCorrupt = errors.New("service: tenant store corrupt")
)

// FaultStorePut fires at the head of a Put/Delete, before anything is
// journaled — the cheapest way to make a registration fail. It adds to
// the atomicio-level fault points on the store's write path.
const FaultStorePut = "service.store.put"

// The store's files, and its snapshot schema version.
const (
	snapshotFile = "tenants.json"
	journalFile  = "journal.log"
	storeVersion = 1
)

// A Store is the durable tenant registry: profiles keyed by tenant name,
// persisted as an atomic snapshot plus a CRC-framed append journal
// (atomicio.Journal). The crash contract, proven by the chaos tests: an
// operation is durable iff it returned nil; a crash — including kill -9
// — at any instruction leaves the store recoverable to exactly the
// acknowledged operations, and recovery is deterministic (two opens of
// the same directory yield byte-identical canonical state).
type Store struct {
	dir string

	mu      sync.Mutex
	tenants map[string]profileio.Profile
	seq     uint64 // sequence of the last applied operation
	j       *atomicio.Journal
}

// journalRec is one journaled operation. Put carries the profile in its
// canonical hotlprof text form (JSON base64), so the journal is
// self-contained and versioned by the profile format itself.
type journalRec struct {
	Seq     uint64 `json:"seq"`
	Op      string `json:"op"` // "put" | "del"
	Name    string `json:"name"`
	Profile []byte `json:"profile,omitempty"`
}

// snapshotDoc is the atomic snapshot: every tenant in name order, plus
// the sequence number the snapshot is current through.
type snapshotDoc struct {
	Version int           `json:"version"`
	Seq     uint64        `json:"seq"`
	Tenants []snapshotRow `json:"tenants"`
}

type snapshotRow struct {
	Name    string `json:"name"`
	Profile []byte `json:"profile"`
}

// OpenStore opens (creating if needed) the tenant store in dir,
// replaying the journal over the snapshot. compactEvery <= 0 uses
// atomicio.DefaultCompactEvery.
func OpenStore(dir string, compactEvery int) (*Store, error) {
	s := &Store{dir: dir, tenants: make(map[string]profileio.Profile)}
	j, rec, err := atomicio.OpenJournal(dir, snapshotFile, journalFile, compactEvery, (*storeState)(s))
	if err != nil {
		return nil, err
	}
	s.j = j
	reg := obs.Enabled()
	reg.Counter(mStoreReplayed).Add(int64(rec.Replayed))
	if rec.Torn {
		reg.Counter(mStoreTornRecovered).Add(1)
		reg.Counter(mStoreCompactions).Add(1)
		obs.Logger().Warn("tenant journal had a torn tail; compacted", "dir", dir)
	}
	return s, nil
}

// storeState is the Store as the journal's atomicio.JournalState; the
// journal calls it during OpenStore and under s.mu afterwards.
type storeState Store

func (st *storeState) Restore(data []byte) error {
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%w: %v", ErrStoreCorrupt, err)
	}
	if doc.Version != storeVersion {
		return fmt.Errorf("%w: snapshot version %d (want %d)", ErrStoreCorrupt, doc.Version, storeVersion)
	}
	for _, row := range doc.Tenants {
		p, err := profileio.Read(bytes.NewReader(row.Profile))
		if err != nil {
			return fmt.Errorf("%w: tenant %q: %v", ErrStoreCorrupt, row.Name, err)
		}
		st.tenants[row.Name] = p
	}
	st.seq = doc.Seq
	return nil
}

func (st *storeState) Apply(rec []byte) (bool, error) {
	var jr journalRec
	if err := json.Unmarshal(rec, &jr); err != nil {
		return false, err
	}
	if jr.Seq <= st.seq {
		return false, nil // already folded into the snapshot
	}
	switch jr.Op {
	case "put":
		p, err := profileio.Read(bytes.NewReader(jr.Profile))
		if err != nil {
			return false, err
		}
		st.tenants[jr.Name] = p
	case "del":
		delete(st.tenants, jr.Name)
	default:
		return false, fmt.Errorf("service: unknown journal op %q", jr.Op)
	}
	st.seq = jr.Seq
	return true, nil
}

func (st *storeState) WriteSnapshot(w io.Writer) error {
	doc, err := (*Store)(st).snapshotDocLocked()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Put registers (or replaces) a tenant profile durably: the operation is
// journaled and fsynced before it is applied in memory, so an
// acknowledged Put survives any crash.
func (s *Store) Put(name string, p profileio.Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("service: empty tenant name")
	}
	if err := faultinject.Hit(FaultStorePut); err != nil {
		return fmt.Errorf("service: store put: %w", err)
	}
	var buf bytes.Buffer
	if err := profileio.Write(&buf, p); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(journalRec{Op: "put", Name: name, Profile: buf.Bytes()}, func() { s.tenants[name] = p })
}

// Delete unregisters a tenant durably.
func (s *Store) Delete(name string) error {
	if err := faultinject.Hit(FaultStorePut); err != nil {
		return fmt.Errorf("service: store delete: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tenants[name]; !ok {
		return fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	return s.appendLocked(journalRec{Op: "del", Name: name}, func() { delete(s.tenants, name) })
}

// appendLocked journals jr as the next operation and, once it is
// durable, applies it in memory.
func (s *Store) appendLocked(jr journalRec, apply func()) error {
	jr.Seq = s.seq + 1
	rec, err := json.Marshal(jr)
	if err != nil {
		return err
	}
	compacted, err := s.j.Append(rec, func() {
		s.seq = jr.Seq
		apply()
	})
	if compacted {
		obs.Enabled().Counter(mStoreCompactions).Add(1)
	}
	return err
}

func (s *Store) snapshotDocLocked() (snapshotDoc, error) {
	doc := snapshotDoc{Version: storeVersion, Seq: s.seq}
	for _, n := range s.namesLocked() {
		var buf bytes.Buffer
		if err := profileio.Write(&buf, s.tenants[n]); err != nil {
			return doc, err
		}
		doc.Tenants = append(doc.Tenants, snapshotRow{Name: n, Profile: buf.Bytes()})
	}
	return doc, nil
}

// Get returns the named tenant's profile.
func (s *Store) Get(name string) (profileio.Profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.tenants[name]
	if !ok {
		return profileio.Profile{}, fmt.Errorf("%w: %q", ErrTenantNotFound, name)
	}
	return p, nil
}

// Names returns the registered tenant names, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.namesLocked()
}

func (s *Store) namesLocked() []string {
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered tenants.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tenants)
}

// Dir returns the store's directory — shared with the epoch audit log,
// so one -store flag names the daemon's whole durable footprint.
func (s *Store) Dir() string { return s.dir }

// Seq returns the sequence number of the last applied operation.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// CanonicalBytes renders the store's full state deterministically — the
// snapshot document, minus the sequence number, as indented JSON — so
// two stores holding the same tenants agree regardless of history.
func (s *Store) CanonicalBytes() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc, err := s.snapshotDocLocked()
	if err != nil {
		return nil, err
	}
	doc.Seq = 0
	return json.MarshalIndent(doc, "", "  ")
}

// Close closes the journal. Further writes fail; reads keep working.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Close()
}
