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

echo "== pair rule smoke (HEAD vs working tree, 1 pair) =="
# Keeps scripts/pair.sh, and its reading of BENCHMARK.json and of
# bench/run.sh's output, working. One pair at a 1 s budget resolves no
# gain; a WORSE verdict here on an unchanged tree means a noisy machine.
scripts/pair.sh HEAD --pairs 1 --seconds 1

echo "== go test -race =="
# The worker pool is GOMAXPROCS wide, so par batches, seed-sharded soaks
# and fleet shard groups all run concurrently under the race detector.
# Tests that compare worker counts or pin the sequential schedule call
# par.SetWorkers themselves; force the sequential schedule everywhere
# with GOMAXPROCS=1.
go test -race ./...

echo "== chaos soak (25 seeds) =="
go test ./internal/chaos -run TestChaosSoak -chaos.seeds 25

echo "== bench smoke (-benchtime=1x) =="
# One iteration of every microbenchmark: keeps their setup code and the
# zero-allocation assertions some of them make healthy. Not a timing gate;
# bench/run.sh is the benchmark.
go test -run '^$' -bench . -benchtime 1x ./...

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
trap 'rm -rf "$CKPT"; kill $SRV 2>/dev/null || true' EXIT
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
