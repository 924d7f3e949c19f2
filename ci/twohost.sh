#!/usr/bin/env bash
# Two-host deployment gate: run the celegans assembly as two separately
# launched process groups joined through a standalone rendezvous — ranks 0,1
# listening on 127.0.0.1 and ranks 2,3 on 127.0.0.2, the CI stand-in for two
# machines. Rank 0 writes the run manifest; benchguard then requires the
# contig checksum and traffic totals to match the given baseline manifest
# (an in-process run of the same assembly) exactly.
#
# Usage: ci/twohost.sh <baseline-manifest.json> [manifest-out]
set -euo pipefail

BASELINE="${1:?usage: ci/twohost.sh <baseline-manifest.json> [manifest-out]}"
OUT="${2:-RUN_twohost.json}"
SIZE="${SIZE:-150000}"
NP=4

# The binary's directory is removed on every exit, and the ranks still
# running are killed; the trap stays set to the end of the script.
BIN="$(mktemp -d)"
pids=()
cleanup() {
	kill "${pids[@]}" 2>/dev/null || true
	rm -rf "$BIN"
}
trap cleanup EXIT

ELBA="$BIN/elba"
go build -o "$ELBA" ./cmd/elba

RDV="127.0.0.1:$((20000 + RANDOM % 20000))"

"$ELBA" -serve-rendezvous "$RDV" -np $NP &
pids+=($!)
sleep 1

# Every rank gets the same flags, -manifest included; worker ranks never
# write the file (only rank 0 produces output). Every process collects its
# ranks' metrics whether or not it is given -manifest, so rank 0's manifest
# covers the world either way.
common=(-preset celegans -size "$SIZE" -transport tcp -join "$RDV" -np $NP -manifest "$OUT")

# Group B ("host" 127.0.0.2), launched first: bootstrap order must not
# matter, every rank just dials the rendezvous.
"$ELBA" "${common[@]}" -rank 2 -listen 127.0.0.2:0 &
pids+=($!)
"$ELBA" "${common[@]}" -rank 3 -listen 127.0.0.2:0 &
pids+=($!)
# Group A ("host" 127.0.0.1); rank 0 gathers the results and writes the
# manifest.
"$ELBA" "${common[@]}" -rank 1 -listen 127.0.0.1:0 &
pids+=($!)
"$ELBA" "${common[@]}" -rank 0 -listen 127.0.0.1:0

wait "${pids[@]}"
pids=()

go run ./cmd/benchguard -manifest "$OUT" -manifest-baseline "$BASELINE"
