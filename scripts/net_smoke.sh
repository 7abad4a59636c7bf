#!/usr/bin/env bash
# End-to-end smoke of the socket serving front end.
#
# Trains a tiny model, renders reference contours with `doinn_cli predict`,
# then starts `doinn_serve --listen 0` and drives it with doinn_client over
# loopback. Asserts:
#
#   - the server comes up, serves the load, and drains cleanly on a
#     SHUTDOWN frame (nonzero server exit fails the script);
#   - every socket contour is byte-identical to the local predict output
#     for the same mask (the transport-independence contract), including
#     large windows sent A, A, A, B, A: the LP+IR capture, its validating
#     replay, a trusted replay, a new shape replacing the compiled large
#     plan, and a capture of the first shape again;
#   - the Chrome trace written on shutdown validates and contains the
#     full serving-path span taxonomy (serve.ingest, sched.queue_wait,
#     sched.dispatch, serve.wait, serve.write);
#   - `doinn_client --follow` tails a manifest appended in two batches and
#     then `__shutdown__`: byte-identical outputs, one `ok` results line per
#     request, a server drained by the SHUTDOWN frame, and both processes
#     exiting 0;
#   - a two-model, two-replica `--models` registry server routes socket
#     traffic by the protocol-v2 model field, the `model:` manifest prefix
#     and --model to the right model, byte-identical to per-model local
#     predictions;
#   - an int8 server (autotune on) matches `doinn_cli predict --precision
#     int8 --no-autotune` byte for byte on a 128-px metal model where int8
#     and fp32 references differ (the check fails if they never do);
#   - retired inputs fail at startup with a message naming the
#     replacement: `--precision bf16`, `--int8-policy`, `--adaptive-delay`,
#     and a registry line naming bf16.
#
# Usage: scripts/net_smoke.sh [build-dir]   (defaults to ./build)
# Set DOINN_SMOKE_ARTIFACTS=<dir> to copy trace/metrics JSON and server
# logs there when the smoke fails (CI uploads that directory).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
for bin in doinn_cli doinn_serve doinn_client; do
  if [ ! -x "$BUILD/$bin" ]; then
    echo "net_smoke: $BUILD/$bin not built" >&2
    exit 2
  fi
done

WORK=$(mktemp -d)
SERVER_PID=""
FOLLOW_PID=""
cleanup() {
  status=$?
  for pid in $FOLLOW_PID $SERVER_PID; do
    if kill -0 "$pid" 2>/dev/null; then
      kill "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  if [ "$status" -ne 0 ] && [ -n "${DOINN_SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$DOINN_SMOKE_ARTIFACTS"
    cp "$WORK"/*.json "$WORK"/*.log "$WORK"/*.results \
      "$DOINN_SMOKE_ARTIFACTS"/ 2>/dev/null || true
  fi
  rm -rf "$WORK"
}
trap cleanup EXIT

# start_server <log> <doinn_serve args...>: starts the server in the
# background (SERVER_PID) and waits for its `listening on port N` line
# (PORT).
start_server() {
  local log=$1
  shift
  "$BUILD/doinn_serve" "$@" > "$log" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT=$(sed -n 's/.*listening on port \([0-9][0-9]*\).*/\1/p' "$log" |
      head -n 1)
    [ -n "$PORT" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "net_smoke: server exited before listening" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [ -z "$PORT" ]; then
    echo "net_smoke: server never reported its port" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "server is listening on port $PORT"
}

# expect_same <reference> <got> <what>: byte comparison with a message.
expect_same() {
  cmp "$1" "$2" || {
    echo "net_smoke: $3 differs from the doinn_cli predict reference" >&2
    exit 1
  }
}

echo "== training two tiny models =="
"$BUILD/doinn_cli" train --kind via --tile 64 --count 2 --epochs 1 \
  --out "$WORK/weights.bin"
"$BUILD/doinn_cli" train --kind via --tile 64 --count 2 --epochs 2 \
  --out "$WORK/weights_b.bin"

echo "== retired inputs are rejected at startup =="
# expect_rejected <message regex> <doinn_serve args...>: the server must
# exit nonzero before listening, naming the replacement in its message.
expect_rejected() {
  local want=$1
  shift
  local status=0
  timeout 60 "$BUILD/doinn_serve" "$@" > "$WORK/rejected.log" 2>&1 ||
    status=$?
  if [ "$status" -eq 0 ] || [ "$status" -eq 124 ] ||
    ! grep -q -- "$want" "$WORK/rejected.log"; then
    echo "net_smoke: doinn_serve $* should fail naming '$want'" \
      "(exit $status)" >&2
    cat "$WORK/rejected.log" >&2
    exit 1
  fi
  echo "rejected (exit $status): $(head -n 1 "$WORK/rejected.log")"
}
expect_rejected "expected fp32 or int8" --weights "$WORK/weights.bin" \
  --listen 0 --precision bf16
expect_rejected "packs every conv int8" --weights "$WORK/weights.bin" \
  --listen 0 --int8-policy always
expect_rejected "held open for --max-delay-us" --weights "$WORK/weights.bin" \
  --listen 0 --adaptive-delay
echo "gamma $WORK/weights.bin bf16 1" > "$WORK/bf16_registry.txt"
expect_rejected "want fp32|int8" --models "$WORK/bf16_registry.txt" \
  --listen 0

echo "== generating masks and doinn_cli predict references =="
for i in 1 2 3 4; do
  "$BUILD/doinn_cli" generate --kind via --tile 64 --seed "$i" \
    --out "$WORK/mask$i.pgm"
  "$BUILD/doinn_cli" predict --weights "$WORK/weights.bin" \
    --mask "$WORK/mask$i.pgm" --out "$WORK/ref$i.pgm"
  "$BUILD/doinn_cli" predict --weights "$WORK/weights_b.bin" \
    --mask "$WORK/mask$i.pgm" --out "$WORK/ref_b$i.pgm"
done
# Large windows (2x2 and 4x4 half-overlap clip grids on the 64-px model).
"$BUILD/doinn_cli" generate --kind via --tile 128 --seed 5 \
  --out "$WORK/largeA.pgm"
"$BUILD/doinn_cli" generate --kind via --tile 192 --seed 6 \
  --out "$WORK/largeB.pgm"
for w in A B; do
  "$BUILD/doinn_cli" predict --weights "$WORK/weights.bin" \
    --mask "$WORK/large$w.pgm" --out "$WORK/ref_large$w.pgm"
done
LARGE_SEQ="A A A B A"

echo "== starting doinn_serve --listen =="
start_server "$WORK/server.log" --weights "$WORK/weights.bin" --listen 0 \
  --trace-out "$WORK/trace.json" \
  --metrics-out "$WORK/metrics.json"

echo "== driving the socket load =="
for i in 1 2 3 4; do
  echo "$WORK/mask$i.pgm $WORK/sock$i.pgm"
done > "$WORK/sock_manifest.txt"
"$BUILD/doinn_client" --connect "127.0.0.1:$PORT" \
  --manifest "$WORK/sock_manifest.txt" --concurrency 2 --repeat 2

# One large window in flight at a time, so the server sees them in order.
i=0
for w in $LARGE_SEQ; do
  i=$((i + 1))
  echo "$WORK/large$w.pgm $WORK/sock_large$i.pgm"
done > "$WORK/large_manifest.txt"
"$BUILD/doinn_client" --connect "127.0.0.1:$PORT" \
  --manifest "$WORK/large_manifest.txt" --concurrency 1

echo "== draining via a SHUTDOWN frame =="
"$BUILD/doinn_client" --connect "127.0.0.1:$PORT" --shutdown
wait "$SERVER_PID"
SERVER_PID=""
cat "$WORK/server.log"

echo "== checking socket vs local predict byte identity =="
for i in 1 2 3 4; do
  expect_same "$WORK/ref$i.pgm" "$WORK/sock$i.pgm" "socket contour $i"
done
i=0
for w in $LARGE_SEQ; do
  i=$((i + 1))
  expect_same "$WORK/ref_large$w.pgm" "$WORK/sock_large$i.pgm" \
    "large window $i ($w)"
done
echo "all contours byte-identical"

echo "== validating the trace =="
python3 scripts/trace_summary.py "$WORK/trace.json" --require \
  serve.ingest sched.queue_wait sched.dispatch serve.wait serve.write

echo "== doinn_client --follow end to end =="
# The client tails a manifest a producer appends to in two batches, then
# ends it with __shutdown__; the client finishes its requests and sends
# the SHUTDOWN frame that drains the server.
start_server "$WORK/follow_server.log" --weights "$WORK/weights.bin" \
  --listen 0 --metrics-out "$WORK/follow_metrics.json"
FOLLOW=$WORK/follow.txt
RESULTS=$FOLLOW.results  # the client's default results path
: > "$FOLLOW"
"$BUILD/doinn_client" --connect "127.0.0.1:$PORT" --follow "$FOLLOW" \
  --concurrency 2 > "$WORK/follow_client.log" 2>&1 &
FOLLOW_PID=$!

# wait_results <n>: waits until the client has written n results lines.
wait_results() {
  for _ in $(seq 1 200); do
    [ "$(cat "$RESULTS" 2>/dev/null | wc -l)" -ge "$1" ] && return 0
    sleep 0.05
  done
  echo "net_smoke: --follow wrote fewer than $1 results lines" >&2
  cat "$WORK/follow_client.log" >&2
  exit 1
}
printf '%s\n' "$WORK/mask1.pgm $WORK/follow1.pgm" \
  "# a comment, then a blank line" "" \
  "$WORK/mask2.pgm $WORK/follow2.pgm" >> "$FOLLOW"
wait_results 2
printf '%s\n' "$WORK/mask3.pgm $WORK/follow3.pgm" \
  "model:default $WORK/mask4.pgm $WORK/follow4.pgm" >> "$FOLLOW"
wait_results 4
echo "__shutdown__" >> "$FOLLOW"

wait "$FOLLOW_PID" || {
  echo "net_smoke: doinn_client --follow exited nonzero" >&2
  cat "$WORK/follow_client.log" >&2
  exit 1
}
FOLLOW_PID=""
wait "$SERVER_PID" || {
  echo "net_smoke: the --follow server exited nonzero" >&2
  cat "$WORK/follow_server.log" >&2
  exit 1
}
SERVER_PID=""
cat "$WORK/follow_client.log" "$WORK/follow_server.log"

for i in 1 2 3 4; do
  expect_same "$WORK/ref$i.pgm" "$WORK/follow$i.pgm" "--follow contour $i"
  n=$(grep -c "^$WORK/mask$i.pgm $WORK/follow$i.pgm ok " "$RESULTS" || true)
  if [ "$n" -ne 1 ]; then
    echo "net_smoke: expected one ok results line for request $i, got $n" >&2
    cat "$RESULTS" >&2
    exit 1
  fi
done
if [ "$(wc -l < "$RESULTS")" -ne 4 ]; then
  echo "net_smoke: expected 4 results lines" >&2
  cat "$RESULTS" >&2
  exit 1
fi
grep -q "served 4 requests (0 errors" "$WORK/follow_server.log" || {
  echo "net_smoke: the --follow server did not drain all 4 requests" >&2
  exit 1
}
echo "--follow outputs byte-identical, 4 ok results lines, server drained"

echo "== two-model registry end to end =="
# A pool server with two replicas of each model. Socket traffic routes by
# the protocol-v2 model field, set by the `model:` manifest prefix or
# --model; both must match the per-model local predictions byte for byte.
cat > "$WORK/registry.txt" <<EOF
# name  checkpoint          precision  replicas
alpha   $WORK/weights.bin   fp32       2
beta    $WORK/weights_b.bin fp32       2
EOF

start_server "$WORK/pool_server.log" --models "$WORK/registry.txt" \
  --listen 0 --metrics-out "$WORK/pool_metrics.json"

# Interleaved per-model routing in one manifest (model: prefix), plus
# unprefixed lines that must land on the default model (alpha).
for i in 1 2 3 4; do
  echo "model:alpha $WORK/mask$i.pgm $WORK/pool_a$i.pgm"
  echo "model:beta $WORK/mask$i.pgm $WORK/pool_b$i.pgm"
  echo "$WORK/mask$i.pgm $WORK/pool_d$i.pgm"
done > "$WORK/pool_manifest.txt"
"$BUILD/doinn_client" --connect "127.0.0.1:$PORT" \
  --manifest "$WORK/pool_manifest.txt" --concurrency 3

# --model flag routing of a whole run to one model.
for i in 1 2; do
  echo "$WORK/mask$i.pgm $WORK/flag_b$i.pgm"
done > "$WORK/flag_manifest.txt"
"$BUILD/doinn_client" --connect "127.0.0.1:$PORT" --model beta \
  --manifest "$WORK/flag_manifest.txt"

"$BUILD/doinn_client" --connect "127.0.0.1:$PORT" --shutdown
wait "$SERVER_PID"
SERVER_PID=""
cat "$WORK/pool_server.log"

echo "== checking two-model routing byte identity =="
for i in 1 2 3 4; do
  expect_same "$WORK/ref$i.pgm" "$WORK/pool_a$i.pgm" "pool model alpha contour $i"
  expect_same "$WORK/ref_b$i.pgm" "$WORK/pool_b$i.pgm" "pool model beta contour $i"
  expect_same "$WORK/ref$i.pgm" "$WORK/pool_d$i.pgm" "pool default-model contour $i"
done
for i in 1 2; do
  expect_same "$WORK/ref_b$i.pgm" "$WORK/flag_b$i.pgm" "--model beta contour $i"
done
echo "two-model routing byte-identical"

echo "== int8 serving end to end =="
# The via models above print all-foreground contours, where int8 and fp32
# bytes agree; this metal model prints real shapes. The server runs int8
# with autotune on, the references with --no-autotune: same bytes.
METAL=$WORK/weights_metal.bin
"$BUILD/doinn_cli" train --kind metal --tile 128 --count 8 --epochs 4 \
  --out "$METAL"
differs=0
for i in 1 2 3; do
  "$BUILD/doinn_cli" generate --kind metal --tile 128 --seed "$i" \
    --out "$WORK/metal$i.pgm"
  "$BUILD/doinn_cli" predict --weights "$METAL" --mask "$WORK/metal$i.pgm" \
    --out "$WORK/ref_metal$i.pgm"
  "$BUILD/doinn_cli" predict --weights "$METAL" --mask "$WORK/metal$i.pgm" \
    --out "$WORK/ref_i8_metal$i.pgm" --precision int8 --no-autotune
  cmp -s "$WORK/ref_metal$i.pgm" "$WORK/ref_i8_metal$i.pgm" ||
    differs=$((differs + 1))
  echo "$WORK/metal$i.pgm $WORK/sock_i8_metal$i.pgm" \
    >> "$WORK/int8_manifest.txt"
done
[ "$differs" -gt 0 ] || {
  echo "net_smoke: int8 and fp32 references agree on all 3 metal masks," \
    "so the int8 byte check would prove nothing" >&2
  exit 1
}

start_server "$WORK/int8_server.log" --weights "$METAL" --listen 0 \
  --precision int8
"$BUILD/doinn_client" --connect "127.0.0.1:$PORT" \
  --manifest "$WORK/int8_manifest.txt" --concurrency 2
"$BUILD/doinn_client" --connect "127.0.0.1:$PORT" --shutdown
wait "$SERVER_PID"
SERVER_PID=""
cat "$WORK/int8_server.log"
for i in 1 2 3; do
  expect_same "$WORK/ref_i8_metal$i.pgm" "$WORK/sock_i8_metal$i.pgm" \
    "int8 socket contour $i"
done
echo "int8 socket contours byte-identical ($differs of 3 differ from fp32)"

echo "net_smoke: PASS"
