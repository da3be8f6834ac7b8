#!/bin/sh
# Extended verify gate: the tier-1 checks (build, vet, vetkit, tests with
# shuffled order, race), a short fuzz smoke run per native fuzz target,
# and (when the tool is installed) a vulnerability scan. Run from the
# repository root:
#
#   sh scripts/verify.sh            # everything
#   FUZZTIME=30s sh scripts/verify.sh
#
# Exit code is non-zero on any tier-1, vetkit, or fuzz failure, and on
# real govulncheck findings; a missing govulncheck binary prints an
# explicit SKIP line and does not fail, so the gate works offline.
set -eu

FUZZTIME="${FUZZTIME:-5s}"

echo "== tier-1: go build ./..."
go build ./...
echo "== tier-1: go vet ./..."
go vet ./...
echo "== tier-1: vetkit (project invariant analyzers, DESIGN.md §10)"
# The gate has a 60-second budget (mirrored in CI); a hung or quadratic
# analyzer fails here instead of stalling the whole verify run.
if command -v timeout >/dev/null 2>&1; then
	timeout 60 go run ./cmd/vetkit ./...
else
	go run ./cmd/vetkit ./...
fi
echo "== tier-1: go test -shuffle=on ./..."
go test -shuffle=on ./...
echo "== tier-1: go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

# The min-plus kernel is SSE2 assembly on amd64 and pure Go everywhere
# else; cross-building for arm64 keeps the portable path compiling, and
# vet's asmdecl pass (run natively by go vet ./... above) checks the
# amd64 stub's frame against its Go declaration.
echo "== portable kernel: GOARCH=arm64 build and vet"
GOARCH=arm64 go build ./... && GOARCH=arm64 go vet ./internal/partition

# BenchmarkPlanPost fails when its groups leave the refine and
# refine-fallback+exact rungs; one iteration each checks that in < 1 s.
echo "== plan benchmark rung check: BenchmarkPlanPost, one iteration"
go test -run '^$' -bench PlanPost -benchtime 1x ./internal/service

# perfbench is its own module (it imports this one through a replace
# directive), so the root ./... never compiles it: a service or partition
# API change could break the benchmark while everything above stays green.
echo "== perfbench module: build, vet, short tests"
(cd perfbench && go build ./... && go vet ./... && go test -short ./...)

# Fuzz smoke: each target runs for a few seconds so input-hardening
# regressions (parser panics, reference divergence) surface in CI-sized
# time. Targets are pinned here, not discovered, so a renamed target
# fails loudly instead of silently dropping out of the gate.
echo "== fuzz smoke (${FUZZTIME} per target)"
go test -run=NONE -fuzz='^FuzzProfileRoundTrip$' -fuzztime="$FUZZTIME" ./internal/profileio
go test -run=NONE -fuzz='^FuzzCollect$' -fuzztime="$FUZZTIME" ./internal/reuse
go test -run=NONE -fuzz='^FuzzOptimize$' -fuzztime="$FUZZTIME" ./internal/partition
go test -run=NONE -fuzz='^FuzzMinPlus$' -fuzztime="$FUZZTIME" ./internal/partition
go test -run=NONE -fuzz='^FuzzCurveDerive$' -fuzztime="$FUZZTIME" ./internal/mrc
go test -run=NONE -fuzz='^FuzzNaturalPartition$' -fuzztime="$FUZZTIME" ./internal/mrc

# Observability smoke: a real -small run must produce a manifest that
# exists, parses, and reports zero failed groups (checkmanifest also
# verifies schema version, stage spans, and a positive completed count),
# plus a Chrome trace_event timeline with the expected parented pipeline
# spans (checktrace). Given the manifest too, checktrace cross-checks
# the two exports of the one span model: each manifest stage has exactly
# one same-named stage trace event with the same duration.
echo "== obs smoke: experiments -small + manifest + trace checks"
OBS_SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_SMOKE_DIR"' EXIT
go run ./cmd/experiments -small -out "$OBS_SMOKE_DIR" \
	-manifest "$OBS_SMOKE_DIR/manifest.json" \
	-trace-events "$OBS_SMOKE_DIR/trace.json" >/dev/null
go run scripts/checkmanifest.go "$OBS_SMOKE_DIR/manifest.json"
go run scripts/checktrace.go "$OBS_SMOKE_DIR/trace.json" "$OBS_SMOKE_DIR/manifest.json"

# Solver-ladder smoke: a large-C solve through the real optimizer
# CLI must take the coarse-to-fine refinement rung and record it.
# Profiles come from hotlprof at the reduced geometry; the solve itself
# runs at units=16384 (-baselines=false skips the quadratic
# baseline-constrained DPs, which are not what this gate measures), and
# checksolver pins the Optimal scheme's recorded path to "refine".
echo "== obs smoke: optpart large-C solver path"
go run ./cmd/hotlprof -workload lbm -small -out "$OBS_SMOKE_DIR/lbm.hotl" >/dev/null
go run ./cmd/hotlprof -workload mcf -small -out "$OBS_SMOKE_DIR/mcf.hotl" >/dev/null
go run ./cmd/optpart -units 16384 -blocksperunit 1 -baselines=false \
	-manifest "$OBS_SMOKE_DIR/optpart.json" \
	"$OBS_SMOKE_DIR/lbm.hotl" "$OBS_SMOKE_DIR/mcf.hotl" >/dev/null
go run scripts/checksolver.go "$OBS_SMOKE_DIR/optpart.json" refine
# The daemon's and the paper's default geometry (units=1024) on a
# four-program group must take the refinement rung too.
echo "== obs smoke: optpart default-geometry solver path"
go run ./cmd/hotlprof -workload sphinx3 -small -out "$OBS_SMOKE_DIR/sphinx3.hotl" >/dev/null
go run ./cmd/hotlprof -workload soplex -small -out "$OBS_SMOKE_DIR/soplex.hotl" >/dev/null
go run ./cmd/optpart -units 1024 -manifest "$OBS_SMOKE_DIR/optpart1024.json" \
	"$OBS_SMOKE_DIR/lbm.hotl" "$OBS_SMOKE_DIR/mcf.hotl" \
	"$OBS_SMOKE_DIR/sphinx3.hotl" "$OBS_SMOKE_DIR/soplex.hotl" >/dev/null
go run scripts/checksolver.go "$OBS_SMOKE_DIR/optpart1024.json" refine

# Service smoke: the partitiond daemon end to end — reject a hostile
# 78-byte profile with a prompt 4xx, register two tenants,
# request a plan, cross-check it against the offline optpart CLI on the
# same profiles (the bit-exactness contract through both front ends),
# SIGTERM, and assert the clean-drain contract (exit 0, parseable
# manifest). Binaries are prebuilt so the daemon receives the signal
# directly rather than through a go-run wrapper.
echo "== service smoke: partitiond register/plan/drain"
go build -o "$OBS_SMOKE_DIR/partitiond" ./cmd/partitiond
go build -o "$OBS_SMOKE_DIR/optpart" ./cmd/optpart
go run scripts/checkservice.go "$OBS_SMOKE_DIR/partitiond" "$OBS_SMOKE_DIR/optpart" \
	"$OBS_SMOKE_DIR/lbm.hotl" "$OBS_SMOKE_DIR/mcf.hotl"

echo "== govulncheck"
if command -v govulncheck >/dev/null 2>&1; then
	# Exits non-zero (failing the gate, via set -e) only on real findings.
	govulncheck ./...
else
	echo "SKIP: govulncheck not installed (install: go install golang.org/x/vuln/cmd/govulncheck@latest)"
fi

echo "== verify OK"
