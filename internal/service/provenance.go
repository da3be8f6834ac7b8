package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"partitionshare/internal/mrc"
)

// This file is the provenance half of the plan-lifecycle observability
// layer (DESIGN.md §16): every plan the service computes — epoch plans
// from the background re-optimizer and ad-hoc plans from POST /v1/plan —
// carries a PlanProvenance record saying exactly which inputs produced
// it, which solver rung ran, how long the solve took, and which request
// triggered it. The record is embedded
// in plan responses, epoch audit-log records, and change-feed events, so
// any plan observed anywhere can be traced back to its inputs.

// Plan causes: why a plan was computed. CauseChurn is the normal epoch
// trigger (a tenant registered or unregistered); CauseRecovery marks an
// epoch computed while the service was degraded (re-optimization had
// been failing and this solve restored freshness); CauseAdHoc marks a
// POST /v1/plan request plan, which is never an epoch.
const (
	CauseChurn    = "churn"
	CauseRecovery = "recovery"
	CauseAdHoc    = "ad_hoc"
)

// A PlanProvenance records where a plan came from. Epoch is the
// monotonic epoch counter (continued across restarts from the audit
// log) or -1 for ad-hoc plans; InputDigest is the deterministic digest
// of the solve's full input (tenant set, derived curves, cache size) —
// two plans with equal digests were computed from bit-identical inputs;
// TraceID is the W3C trace ID of the triggering request, when one
// carried a trace (for epochs: the last churn request before the solve).
type PlanProvenance struct {
	Epoch       int64  `json:"epoch"`
	Cause       string `json:"cause"`
	InputDigest string `json:"input_digest"`
	SolverPath  string `json:"solver_path,omitempty"`
	ComputeNS   int64  `json:"compute_ns"`
	TraceID     string `json:"trace_id,omitempty"`
	UnixNS      int64  `json:"unix_ns"`
}

// InputDigest computes the deterministic digest of a solve's input: the
// cache size, the tenant names in solve order, and every curve's full
// numeric content (miss ratios bit-for-bit, access count, access rate).
// The encoding is length-prefixed little-endian, so no two distinct
// inputs share an encoding; the digest is the first 16 bytes of the
// SHA-256, hex-encoded (32 characters). names and curves must be
// parallel slices, exactly as handed to the optimizer.
func InputDigest(names []string, curves []mrc.Curve, units int) string {
	h := sha256.New()
	var b [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wu(uint64(units))
	wu(uint64(len(names)))
	for i, n := range names {
		wu(uint64(len(n)))
		h.Write([]byte(n))
		c := curves[i]
		wu(uint64(len(c.MR)))
		for _, v := range c.MR {
			wu(math.Float64bits(v))
		}
		wu(uint64(c.Accesses))
		wu(math.Float64bits(c.AccessRate))
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}
