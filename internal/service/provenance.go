package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

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

// A tenantDigest is the SHA-256 of one tenant's solve input, as
// appendTenantInput encodes it. The service computes it once, when the
// curve is derived, and an input digest combines the tenants' digests.
type tenantDigest [sha256.Size]byte

// appendTenantInput appends the encoding a tenantDigest hashes: the
// tenant's name and its curve's full numeric content (miss ratios
// bit-for-bit, access count, access rate), length-prefixed
// little-endian, so no two distinct tenants share an encoding.
func appendTenantInput(buf []byte, name string, c mrc.Curve) []byte {
	buf = slices.Grow(buf, 32+len(name)+8*len(c.MR))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.MR)))
	for _, v := range c.MR {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Accesses))
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.AccessRate))
}

// inputDigest combines per-tenant digests, in solve order, with the
// cache size: the first 16 bytes of SHA-256(units, n, d₁ … dₙ) (counts
// as little-endian uint64s), hex-encoded (32 characters).
func inputDigest(units int, digests []tenantDigest) string {
	buf := make([]byte, 0, 16+len(digests)*sha256.Size)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(units))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(digests)))
	for i := range digests {
		buf = append(buf, digests[i][:]...)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:16])
}

// InputDigest computes the deterministic digest of a solve's input: the
// cache size, and each tenant's name and curve in solve order. Two plans
// with equal digests were computed from bit-identical inputs. names and
// curves must be parallel slices, exactly as handed to the optimizer.
// It hashes every curve from scratch; the service's own plans get the
// same value from tenant digests cached at registration.
func InputDigest(names []string, curves []mrc.Curve, units int) string {
	digests := make([]tenantDigest, len(names))
	var buf []byte
	for i, n := range names {
		buf = appendTenantInput(buf[:0], n, curves[i])
		digests[i] = sha256.Sum256(buf)
	}
	return inputDigest(units, digests)
}
