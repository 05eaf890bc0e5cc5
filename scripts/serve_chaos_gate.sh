#!/usr/bin/env bash
# CI chaos gate for the mdl-serve daemon.
#
# Phase 1 starts the real binary on a free port with a scratch cache,
# drives it with concurrent clients, sends SIGTERM, and asserts the
# robustness contract:
#
#   * every reply is `ok`, `shed` or `error` (the status trichotomy),
#   * the daemon exits 0 (graceful drain, never a crash or hang),
#   * it logs "drained cleanly",
#   * the cache directory holds no leftover writer sidecar debris
#     (.lock / .tmp.* for .mdls artifacts, .maplock / .new.* for
#     mapped arena images).
#
# Phase 2 starts TWO daemons over ONE shared cache directory and drives
# them concurrently: both processes persist the same content-addressed
# artifacts and restore kernels through the shared mmap(2) path. Both
# must drain cleanly, both must report `store_invalid == 0` (no daemon
# ever observed a corrupt artifact from the other's writes), and the
# shared cache must hold no sidecar debris.
#
# Runs under whatever MDL_FAILPOINTS the environment provides; CI calls
# it once without failpoints and once with fault injection, and the
# contract must hold either way.
#
# Usage: scripts/serve_chaos_gate.sh [requests-per-client]

set -euo pipefail

REQUESTS="${1:-10}"
MODEL="$(cd "$(dirname "$0")/.." && pwd)/models/worker_pool.mdl"
CACHE=$(mktemp -d)
SHARED=$(mktemp -d)
OUTDIR=$(mktemp -d)
trap 'rm -rf "$CACHE" "$SHARED" "$OUTDIR"' EXIT

echo "chaos gate: MDL_FAILPOINTS='${MDL_FAILPOINTS:-}' cache=$CACHE shared=$SHARED"

# Starts a daemon over $2's cache; logs to $OUTDIR/$1.{out,err} and
# sets DAEMON_PID / DAEMON_ADDR once it is accepting connections. Runs
# in the calling shell so the pid stays wait(1)-able.
start_daemon() {
  local name=$1 cache=$2
  cargo run --release -p mdl-serve --bin mdl-serve -- \
    --addr 127.0.0.1:0 --cache-dir "$cache" --metrics \
    > "$OUTDIR/$name.out" 2> "$OUTDIR/$name.err" &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    grep -q 'listening on' "$OUTDIR/$name.out" 2>/dev/null && break
    if ! kill -0 "$DAEMON_PID" 2>/dev/null; then
      echo "chaos gate: daemon $name died during startup" >&2
      cat "$OUTDIR/$name.err" >&2
      return 1
    fi
    sleep 0.1
  done
  DAEMON_ADDR=$(sed -n 's/^mdl-serve: listening on //p' "$OUTDIR/$name.out")
  if [ -z "$DAEMON_ADDR" ]; then
    echo "chaos gate: daemon $name never reported its address" >&2
    cat "$OUTDIR/$name.err" >&2
    return 1
  fi
}

# Asserts a cache directory holds none of the four writer sidecar
# patterns the store's crash-recovery sweep owns.
assert_no_debris() {
  local dir=$1 label=$2 debris
  debris=$(find "$dir" \( -name '*.lock' -o -name '*.tmp.*' \
    -o -name '*.maplock' -o -name '*.new.*' \) | wc -l)
  echo "chaos gate: $label debris files: $debris"
  test "$debris" -eq 0
}

# Queries one stats field from a running daemon over the line protocol.
stats_field() {
  python3 - "$1" "$2" <<'PY'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
with socket.create_connection((host, int(port)), timeout=10) as s:
    s.sendall(b'{"cmd":"stats"}\n')
    line = s.makefile().readline()
print(json.loads(line)["stats"][sys.argv[2]])
PY
}

# Drives the daemon at $1 with solve requests for $MODEL: a two-request
# warm-up that must get an `ok`, then rounds of 1, 4 and 16 concurrent
# connections of $2 requests each. Fails unless every request gets a
# reply whose status is `ok`, `shed` or `error`.
drive() {
  python3 - "$1" "$2" "$MODEL" <<'PY'
import json, socket, sys, threading

host, port = sys.argv[1].rsplit(":", 1)
requests = int(sys.argv[2])
with open(sys.argv[3]) as f:
    model = f.read()

def client(count, tenant, statuses):
    line = (json.dumps({"cmd": "solve", "model": model, "tenant": tenant}) + "\n").encode()
    with socket.create_connection((host, int(port)), timeout=120) as s:
        replies = s.makefile("rb")
        for _ in range(count):
            s.sendall(line)
            try:
                statuses.append(json.loads(replies.readline())["status"])
            except (ValueError, KeyError, TypeError):
                statuses.append(None)

warmup = []
client(2, "warmup", warmup)
if "ok" not in warmup:
    sys.exit(f"chaos gate: warm-up got no ok reply: {warmup}")
for clients in (1, 4, 16):
    statuses = []
    threads = [
        threading.Thread(target=client, args=(requests, f"bench-{i % 4}", statuses))
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    ok, shed, error = (statuses.count(s) for s in ("ok", "shed", "error"))
    print(f"chaos gate: {clients:>2} clients: {ok} ok / {shed} shed / {error} error")
    if ok + shed + error != clients * requests:
        sys.exit(f"chaos gate: replies outside the trichotomy: {statuses}")
PY
}

# ---------------------------------------------------------------------
# Phase 1: single daemon, SIGTERM drain.
# ---------------------------------------------------------------------
start_daemon solo "$CACHE"
SERVE_PID=$DAEMON_PID
ADDR=$DAEMON_ADDR
echo "chaos gate: daemon up on $ADDR (pid $SERVE_PID)"

# Latency is not asserted: under injected faults only termination in
# the trichotomy is.
drive "$ADDR" "$REQUESTS"

kill -TERM "$SERVE_PID"
STATUS=0
wait "$SERVE_PID" || STATUS=$?
echo "chaos gate: daemon exit status $STATUS"
test "$STATUS" -eq 0

grep -q 'drained cleanly' "$OUTDIR/solo.err"

assert_no_debris "$CACHE" "cache"

# ---------------------------------------------------------------------
# Phase 2: two daemons over one shared (mapped) store.
# ---------------------------------------------------------------------
start_daemon a "$SHARED"
PID_A=$DAEMON_PID
ADDR_A=$DAEMON_ADDR
start_daemon b "$SHARED"
PID_B=$DAEMON_PID
ADDR_B=$DAEMON_ADDR
echo "chaos gate: shared-store daemons up on $ADDR_A (pid $PID_A) and $ADDR_B (pid $PID_B)"

drive "$ADDR_A" "$REQUESTS" &
CLIENT_A=$!
drive "$ADDR_B" "$REQUESTS" &
CLIENT_B=$!
wait "$CLIENT_A"
wait "$CLIENT_B"

INVALID_A=$(stats_field "$ADDR_A" store_invalid)
INVALID_B=$(stats_field "$ADDR_B" store_invalid)
echo "chaos gate: store_invalid a=$INVALID_A b=$INVALID_B"
test "$INVALID_A" -eq 0
test "$INVALID_B" -eq 0

for pid in "$PID_A" "$PID_B"; do
  kill -TERM "$pid"
  STATUS=0
  wait "$pid" || STATUS=$?
  echo "chaos gate: shared-store daemon (pid $pid) exit status $STATUS"
  test "$STATUS" -eq 0
done
grep -q 'drained cleanly' "$OUTDIR/a.err"
grep -q 'drained cleanly' "$OUTDIR/b.err"

assert_no_debris "$SHARED" "shared cache"

echo "chaos gate: OK"
