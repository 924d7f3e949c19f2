#!/usr/bin/env bash
# Chaos-recovery gate: run the celegans assembly as a checkpointed 4-process
# job and kill rank 2 mid-Alignment with a deterministic injected fault
# (ELBA_FAULT). The proc supervisor must classify the death, relaunch the
# worker group from the last committed checkpoint, and finish. benchguard
# then requires the recovered run's manifest to match the given baseline (an
# undisturbed in-process run of the same assembly) exactly — contig checksum
# and traffic totals bit-identical, recovery invisible in the output — and
# the manifest to record exactly one supervised restart, proving the fault
# actually fired and was actually recovered from.
#
# Usage: ci/chaos.sh <baseline-manifest.json> [manifest-out]
set -euo pipefail

BASELINE="${1:?usage: ci/chaos.sh <baseline-manifest.json> [manifest-out]}"
OUT="${2:-RUN_chaos.json}"
SIZE="${SIZE:-150000}"
NP=4

# The binary and checkpoints live in a directory removed on every exit.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
ELBA="$SCRATCH/elba"
CKPT="$SCRATCH/checkpoints"
go build -o "$ELBA" ./cmd/elba

ELBA_FAULT="kill:rank=2,stage=Alignment,n=1" \
  "$ELBA" -preset celegans -size "$SIZE" -transport proc -np $NP \
  -checkpoint "$CKPT" -max-restarts 2 -manifest "$OUT"

go run ./cmd/benchguard -manifest "$OUT" -manifest-baseline "$BASELINE" \
  -manifest-restarts 1
