#!/bin/sh
# Full local gate: vet, build, tests under the race detector, the chaos
# soak, and a short fuzz smoke over each binary codec package and the FEC
# batch decoder.
# Usage: scripts/check.sh [fuzz-seconds-per-target]
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${1:-10}s"

echo "== go vet + gofmt =="
go vet ./...
test -z "$(gofmt -l .)" || { gofmt -l . >&2; echo "gofmt: files above need formatting" >&2; exit 1; }

echo "== go build =="
go build ./...

echo "== bench module (short tests) =="
# bench/ is a module of its own that `go build ./...` at the root never
# compiles; the root suite's TestBenchModuleBuilds vets it, and its own
# short tests run here.
go -C bench test -short ./...

echo "== go test -race (sequential schedule, SLINGSHOT_WORKERS=1) =="
SLINGSHOT_WORKERS=1 go test -race ./...

echo "== chaos soak under race detector (SLINGSHOT_WORKERS=4) =="
# The parallel lane: seed-sharded soak plus per-slot worker-pool decode,
# all under the race detector. Every chaos run records the cross-layer
# event trace (chaos.Run delegates to RunTraced), so this doubles as the
# traced-soak race lane: emission sites in phy/harq/rlc/fronthaul/chaos
# run under -race with the worker pool live.
SLINGSHOT_WORKERS=4 go test -race ./internal/chaos -run TestChaosSoak -chaos.seeds 10 -count=1

echo "== chaos soak (25 seeds) =="
go test ./internal/chaos -run TestChaosSoak -chaos.seeds 25

echo "== trace determinism smoke (-race) =="
# The observability layer's own gate: the golden 100-TTI trace must match
# byte-for-byte (and re-match at workers=4), and a forced invariant
# violation must produce the flight-recorder dump identically at workers 1
# vs 4. (The serialized chaos trace's invariance to worker-pool width is
# TestDeterminismMatrix/chaos, which sets its own workers.)
SLINGSHOT_WORKERS=4 go test -race ./internal/trace -run 'TestGoldenTrace' -count=1
SLINGSHOT_WORKERS=4 go test -race ./internal/chaos -run 'TestFlightRecorder|TestCleanRunHasNoFlightDump' -count=1

echo "== kernel differential lane (-race, hot kernels vs retained references) =="
# The flat/closed-form/branch-free kernels are each pinned bit-exactly to a
# straightforward reference implementation kept in-tree. Run the
# differential suites under the race detector with the worker pool live —
# any float reordering, tie-break change, or scratch-sharing race shows
# here before it can skew a report. TestSyndromeFirst* pins the FEC
# pre-pass to iteration 1's output on the scalar and lane-group paths.
# (TestSoftValuePathWorkerDeterminism, which pins the PHY drain's staging
# of a slot's soft values to be worker-count invariant, sets four workers
# itself, so the race lane above runs it.)
SLINGSHOT_WORKERS=4 go test -race ./internal/fec -count=1 \
    -run 'TestDecodeMatchesReference|TestDecodeBatchMatchesReference|TestSyndromeFirst'
SLINGSHOT_WORKERS=4 go test -race ./internal/dsp -count=1 \
    -run 'TestDemodulateMatchesReference'
SLINGSHOT_WORKERS=4 go test -race ./internal/fronthaul -count=1 \
    -run 'TestBFPMatchesReference|TestBFPHostile'
# The random stream's batch kernels, same discipline: NormFill against
# Norm draw by draw, the generator's distribution gate and golden draws,
# TransmitInto and the word-wise pilots against their scalar spellings, the
# scrambler's two ends against each other, and the BLER-vs-SNR table
# against the bands recorded under stream v1.
SLINGSHOT_WORKERS=4 go test -race ./internal/sim -count=1 -run 'Norm|Zig'
SLINGSHOT_WORKERS=4 go test -race ./internal/dsp -count=1 -run 'TestTransmitInto|TestPilots'
SLINGSHOT_WORKERS=4 go test -race ./internal/phy -count=1 -run 'TestBLER|TestScrambl|TestCodec'

echo "== scheduler differential lane (-race, two-tier queue vs reference heap) =="
# The event core's two-tier calendar/heap queue is pinned to the seed's
# container/heap engine kept in-tree (sim/reference_test.go): randomized op
# scripts (FIFO-tied bursts, far-future timers, Remove on stale handles,
# periodic cancels) must fire identical event logs with identical clocks,
# Pending counts and queue snapshots — the snapshot equality is what keeps
# checkpoint fingerprints engine-independent.
SLINGSHOT_WORKERS=4 go test -race ./internal/sim -count=1 \
    -run 'TestQueueDifferential|TestEngineStepBenchmarksDoNotAllocate'

echo "== scheduler bench smoke (--compare over engine microbenches) =="
# Same shape as the kernel bench smoke: one iteration of the engine
# microbenchmarks through the JSON harness plus a self-diff, so the
# schedule→fire alloc assertions and the compare pipeline run every check.
SSMOKE="$(mktemp -d)"
BENCHTIME=1x COUNT=1 OUT="$SSMOKE/sched.json" \
    scripts/bench.sh 'EngineStep|EngineScheduleCancel' > /dev/null
scripts/bench.sh --diff "$SSMOKE/sched.json" "$SSMOKE/sched.json" > /dev/null
rm -rf "$SSMOKE"

echo "== kernel bench smoke (--compare over FEC/BFP/demod kernels) =="
# A fast --compare pass over just the kernel benchmarks against a
# self-recorded snapshot: exercises the full compare pipeline (run, JSON,
# diff, gate) on the hot kernels every check. Not a timing gate — COUNT=1
# at 1x is noise — the timing gate is the committed baseline diff below.
KSMOKE="$(mktemp -d)"
BENCHTIME=1x COUNT=1 OUT="$KSMOKE/kern.json" \
    scripts/bench.sh 'FECDecode$|BFPRoundTrip|Demodulate$' > /dev/null
scripts/bench.sh --diff "$KSMOKE/kern.json" "$KSMOKE/kern.json" > /dev/null
rm -rf "$KSMOKE"

echo "== bench smoke + compare gate (-benchtime=1x) =="
# One iteration of every benchmark through the JSON harness (asserts the
# harness and the benchmarks' setup code stay healthy), then the --compare
# gate's own logic: a result file diffed against itself must pass, and a
# doctored ~10x ns/op regression must make the gate exit non-zero. Timing
# at 1x is too noisy to diff against the committed baseline here; use
# `scripts/bench.sh --compare BENCH_<date>_baseline.json` for that.
SMOKE="$(mktemp -d)"
trap 'rm -rf "$SMOKE"' EXIT
BENCHTIME=1x COUNT=1 OUT="$SMOKE/now.json" scripts/bench.sh > /dev/null
scripts/bench.sh --diff "$SMOKE/now.json" "$SMOKE/now.json" > /dev/null
sed 's/"ns_op": /"ns_op": 9/' "$SMOKE/now.json" > "$SMOKE/slow.json"
if scripts/bench.sh --diff "$SMOKE/now.json" "$SMOKE/slow.json" > /dev/null 2>&1; then
    echo "bench compare gate failed to flag a 10x ns/op regression" >&2
    exit 1
fi

echo "== frontier smoke (availability-vs-spare-ratio sweep) =="
# The sweep must complete with zero invariant violations and print its
# deterministic table + fingerprint; a small -scale keeps it quick.
go run ./cmd/experiments -run frontier -scale 0.2 | tail -6

echo "== metro scale lane (-race, 100 cells / 10k UEs) =="
# The headline scale target: a 100-cell, 10k-UE lockstep fleet must
# complete cleanly under the race detector (short horizon: the point is
# barrier/mailbox correctness at width, not a long soak).
go run -race ./cmd/experiments -cells 100 -ues 10000 -horizon 15ms | tail -3

echo "== checkpoint lane (slingshotd HTTP smoke) =="
# Resident-server smoke: bring up -serve with a forced rogue violation,
# wait for the run (which auto-replays from the nearest checkpoint and
# must find byte-identical flight dumps), scrape /metrics, rewind-and-hold
# at the violation barrier, force a /checkpoint, kill the server, restart
# a fresh process on the same checkpoint directory, /restore the same
# barrier, and require the identical snapshot fingerprint across the
# process boundary.
CKPT="$(mktemp -d)"
go build -o "$CKPT/slingshotd" ./cmd/slingshotd
"$CKPT/slingshotd" -serve 127.0.0.1:0 -scenario metro -cells 4 -ues 8 \
    -ckpt-every 40 -ckpt-dir "$CKPT/snaps" -rogue-at 0.1 -rogue-cell 2 \
    > "$CKPT/serve1.log" 2>&1 &
SRV=$!
trap 'rm -rf "$SMOKE" "$CKPT"; kill $SRV 2>/dev/null || true' EXIT
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's|serve: listening on http://||p' "$CKPT/serve1.log")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "slingshotd -serve did not come up" >&2; exit 1; }
DONE=""
for _ in $(seq 1 150); do
    if curl -sf "http://$ADDR/status" | grep -q '"done": true'; then DONE=1; break; fi
    sleep 0.2
done
[ -n "$DONE" ] || { echo "serve run did not finish" >&2; exit 1; }
curl -sf "http://$ADDR/metrics" | grep -q '# fingerprint' \
    || { echo "/metrics missing fingerprint line" >&2; exit 1; }
curl -sf "http://$ADDR/events" | grep -q 'auto-replay: flight dumps byte-identical' \
    || { echo "auto-replay did not verify the forced violation" >&2; exit 1; }
FP1="$(curl -sf -X POST "http://$ADDR/restore?at_us=100000&hold=1" \
    | sed -n 's/.*"fingerprint": "\([0-9a-f]*\)".*/\1/p')"
FP2="$(curl -sf -X POST "http://$ADDR/checkpoint" \
    | sed -n 's/.*"fingerprint": "\([0-9a-f]*\)".*/\1/p')"
kill $SRV
[ -n "$FP1" ] && [ "$FP1" = "$FP2" ] \
    || { echo "restore/checkpoint fingerprints disagree: '$FP1' vs '$FP2'" >&2; exit 1; }
"$CKPT/slingshotd" -serve 127.0.0.1:0 -scenario metro -cells 4 -ues 8 \
    -ckpt-every 0 -ckpt-dir "$CKPT/snaps" -rogue-at 0.1 -rogue-cell 2 \
    > "$CKPT/serve2.log" 2>&1 &
SRV=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's|serve: listening on http://||p' "$CKPT/serve2.log")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "restarted slingshotd did not come up" >&2; exit 1; }
FP3="$(curl -sf -X POST "http://$ADDR/restore?at_us=100000&hold=1" \
    | sed -n 's/.*"fingerprint": "\([0-9a-f]*\)".*/\1/p')"
kill $SRV
[ "$FP1" = "$FP3" ] \
    || { echo "fingerprint changed across process restart: '$FP1' vs '$FP3'" >&2; exit 1; }
echo "checkpoint fingerprint stable across restart: $FP1"

echo "== fuzz smoke (${FUZZTIME}/target) =="
for target in \
    internal/fronthaul:FuzzDecodePacket \
    internal/fronthaul:FuzzDecodeSections \
    internal/fronthaul:FuzzDecompressBFP \
    internal/fronthaul:FuzzCompressBFP \
    internal/fapi:FuzzDecodeFAPI \
    internal/phy:FuzzCodecRoundTrip \
    internal/phy:FuzzDecodeBlockGarbage \
    internal/shard:FuzzDecodeMessage \
    internal/ckpt:FuzzCheckpointDecode \
    internal/fec:FuzzDecodeBatch
do
    pkg="${target%%:*}"
    fn="${target##*:}"
    echo "-- $pkg $fn"
    go test "./$pkg" -run "^$fn\$" -fuzz "^$fn\$" -fuzztime "$FUZZTIME"
done

echo "ALL CHECKS PASSED"
