#!/usr/bin/env bash
# Assembly-as-a-service smoke gate: start elbad with the artifact cache on,
# run a two-point TR-fuzz sweep as two daemon jobs, and prove the cache did
# its job. The two jobs share their option prefix through Alignment, so the
# pipeline must align exactly once: job A misses and commits the
# post-Alignment entry, job B hits it and resumes. benchguard then requires
#   - job B's manifest to match a cold standalone `elba` run at B's options
#     exactly (contig checksum + traffic totals: a hit is bit-identical),
#   - job A to report no cache hit and job B to report one,
#   - job B's performed alignment work to be at most half of job A's
#     (align_cells_ratio<=0.5; it is 0 on a true hit),
# and the daemon's contigs must byte-match the standalone run's FASTA.
#
# Usage: ci/elbad_smoke.sh
set -euo pipefail

SIZE="${SIZE:-60000}"
P=4
PORT="${PORT:-8642}"
BASE="http://127.0.0.1:$PORT"

SCRATCH="$(mktemp -d)"
go build -o "$SCRATCH/elbad" ./cmd/elbad
go build -o "$SCRATCH/elba" ./cmd/elba
go build -o "$SCRATCH/benchguard" ./cmd/benchguard

"$SCRATCH/elbad" -listen "127.0.0.1:$PORT" -cache "$SCRATCH/cache" &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true' EXIT

for _ in $(seq 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "$BASE/healthz" >/dev/null

# submit_job <spec-json> -> job id (the daemon numbers jobs job-1, job-2, …)
submit_job() {
  curl -sf -X POST "$BASE/jobs" -d "$1" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'
}

# wait_job <id>: poll until terminal; fail unless the job lands in done.
wait_job() {
  local id="$1" status
  for _ in $(seq 600); do
    status="$(curl -sf "$BASE/jobs/$id")"
    case "$status" in
      *'"state":"done"'*) return 0 ;;
      *'"state":"failed"'* | *'"state":"cancelled"'*)
        echo "elbad_smoke: job $id did not finish: $status" >&2
        return 1 ;;
    esac
    sleep 0.5
  done
  echo "elbad_smoke: job $id timed out: $status" >&2
  return 1
}

# A bad spec is a 400 at submit time and the daemon keeps serving (a negative
# genome_len once panicked the handler: the client saw EOF, not a status).
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/jobs" -d '{"preset":"celegans","genome_len":-5}')"
if [ "$CODE" != 400 ]; then
  echo "elbad_smoke: invalid spec answered HTTP $CODE, want 400" >&2
  exit 1
fi
curl -sf "$BASE/healthz" >/dev/null

SPEC_COMMON="\"preset\":\"celegans\",\"genome_len\":$SIZE,\"p\":$P,\"threads\":1"
A="$(submit_job "{$SPEC_COMMON,\"tr_fuzz\":150}")"
wait_job "$A"
B="$(submit_job "{$SPEC_COMMON,\"tr_fuzz\":500}")"
wait_job "$B"

curl -sf "$BASE/jobs/$A/manifest" >"$SCRATCH/A.json"
curl -sf "$BASE/jobs/$B/manifest" >"$SCRATCH/B.json"
curl -sf "$BASE/jobs/$B/contigs" >"$SCRATCH/b.fa"
echo "elbad_smoke: cache after sweep: $(curl -sf "$BASE/cache")"

# Cold ground truth at job B's options, no daemon and no cache involved.
"$SCRATCH/elba" -preset celegans -size "$SIZE" -seed 1 -p $P -threads 1 \
  -trfuzz 500 -manifest "$SCRATCH/COLD.json" -out "$SCRATCH/cold.fa"

"$SCRATCH/benchguard" -manifest "$SCRATCH/B.json" -manifest-baseline "$SCRATCH/COLD.json"
"$SCRATCH/benchguard" -manifest "$SCRATCH/A.json" -assert 'cache_hit<=0'
"$SCRATCH/benchguard" -manifest "$SCRATCH/B.json" -manifest-pair "$SCRATCH/A.json" \
  -assert 'cache_hit>=1,align_cells_ratio<=0.5'
cmp "$SCRATCH/b.fa" "$SCRATCH/cold.fa"

echo "elbad_smoke: PASS (job $B reused job $A's alignment; contigs bit-identical to cold run)"
