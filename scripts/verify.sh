#!/usr/bin/env sh
# verify.sh — the repository's full verification gate, in dependency order:
# compile, vet, format, domain lint (benchlint), unit/integration tests, and
# a short-mode race pass over the concurrency-heavy packages. Run from
# anywhere inside the repository; every gate must pass.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "==> benchlint -diff vs merge base (fast gate)"
# Lint only the packages changed since the merge base, plus their reverse
# dependencies — quick feedback before the expensive gates. Override the
# base with BENCHLINT_DIFF_BASE; the full tree is linted in the race gate.
BASE=${BENCHLINT_DIFF_BASE:-origin/main}
if ! git rev-parse -q --verify "$BASE" >/dev/null 2>&1; then
    BASE=main
fi
if git rev-parse -q --verify "$BASE" >/dev/null 2>&1; then
    go run ./cmd/benchlint -diff "$BASE"
else
    echo "benchlint: no base ref found; skipping diff gate"
fi

echo "==> go test ./..."
go test ./...

echo "==> loadgen module tests (cd loadgen && go test ./...)"
# loadgen/ is a Go module of its own (it imports this one through a replace
# directive), so the root-module test run above never reaches its tests.
(cd loadgen && go test ./...)

echo "==> benchlint ./... (full tree, incl. self-lint of internal/analysis)"
go run ./cmd/benchlint ./...
go run ./cmd/benchlint ./internal/analysis/...

echo "==> benchlint hotpath-alloc (batch hot-path allocation gate)"
# Explicit pass of the interprocedural allocation rule over the tree the
# batch loops live in, so a hot-path alloc regression names itself here
# instead of hiding in the full-tree run above.
go run ./cmd/benchlint -rule hotpath-alloc ./internal/...

echo "==> go test -race (short) core/stats/sqldb/wal/api/cluster"
go test -race -short -count=1 ./internal/core/... ./internal/stats/... ./internal/sqldb/... ./internal/wal/ ./internal/api/ ./internal/cluster/

echo "==> cluster merge gate (-race): coordinator + 2 in-process workers"
# Short YCSB burst through the coordinator/worker wire: merged committed
# count must equal the sum of the per-worker totals exactly, and merged
# percentiles must land within 10% of a single-collector oracle built by
# merging the workers' own histograms in-process.
go test -race -count=1 -run 'TestClusterGateMergedExactness' ./internal/cluster/

echo "==> observability smoke (/metrics exposition, SSE stream, error envelope)"
go test -count=1 -run 'TestMetricsEndpoint|TestStreamEndpoint|TestStreamWhilePaused|TestErrorEnvelope' ./internal/api/

echo "==> synthesis round trip (-race): capture -> profile -> scaled open-loop replay"
# Seeded end-to-end synthesis gate: capture a live YCSB run into a profile,
# amplify it x2 through the synthesizer, replay open loop, and require the
# replay's rate and per-type mixture to conform (rate +-20%, mix +-0.05).
# The API-level capture/profile/arrival resources race under the short pass
# above; this drives the whole loop through internal/synth.
go test -race -count=1 -run 'TestSynthRoundTrip|TestScheduleConformance' ./internal/benchmarks/synthetic/ ./internal/synth/

echo "==> isolation conformance & crash recovery (-race, fixed seed)"
# Deterministic differential-oracle harness for the three personalities plus
# both arms of the one crash harness (RAM log sweep, disk recovery sweep).
# CONSISTENCY_SEED=<n> reseeds the run; add -consistency.long for the ~10x
# soak shape.
go test -race -count=1 ./internal/consistency/

echo "==> crash torture (-race): RAM log sweep + disk full-recovery sweep"
# The durability gate, both arms of the one crash harness. A byte budget
# meters every durable write. The RAM arm (TestCrash*) sweeps a gomvcc log
# at 15 budgets plus mid-frame variants under a kill, a short write and
# ENOSPC, write-through and group commit: acked = winners exactly under
# write-through, and no commit is acked after one failed. The disk arm
# (TestDiskCrash*) meters WAL appends and heap page flushes together and
# kills the stream at >= 15 points — evenly spaced, mid-WAL-frame,
# mid-page-flush, and mid-checkpoint tears. Every kill must honor
# acked <= winners <= acked+uncertain with byte-exact rows; disk kills must
# also recover with every device page passing Verify and the recovered
# engine passing the conformance oracle. Named explicitly (it also runs in
# the package pass above) so a durability regression names itself here.
go test -race -count=1 -run 'TestCrash|TestDiskCrash' ./internal/consistency/

echo "==> go test -race storage stress (striped store + online vacuum)"
go test -race -count=1 -run 'TestStorageStressConcurrent' ./internal/sqldb/txn/

echo "==> allocation smoke (prepared point read)"
go test -count=1 -run 'TestPreparedPointReadAllocSmoke' -v ./internal/sqldb/ | grep -E 'allocs/op|PASS|FAIL'

echo "==> bench record compare (BENCH_obsv.json -> BENCH_speed.json)"
# Deterministic file-vs-file regression gate over the checked-in records:
# the raw-speed record must not regress tps, ns/op, or throughput-normalized
# allocations by more than 5% against the observability-era numbers.
scripts/bench.sh --compare BENCH_obsv.json BENCH_speed.json

echo "==> bench record compare (BENCH_disk.json: disk-resident YCSB, fresh run)"
# Fresh disk-resident rows against the checked-in disk-residency record:
# guards the buffer-pool/eviction/recovery path's throughput (and its
# dataset>=2x-pool invariant, asserted inside the benchmark itself).
# 4x benchtime averages four 500ms runs per row, keeping run-to-run noise
# well inside the 5% envelope. The record's all-RAM golock row is contextual
# (it is gated via BENCH_speed.json above), hence --allow-missing.
COMPARE_BENCH='BenchmarkEngineYCSBDisk' BENCHTIME_MACRO=4x scripts/bench.sh --compare BENCH_disk.json --allow-missing

echo "verify: all gates passed"
