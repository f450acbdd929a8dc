#!/usr/bin/env bash
# Repository check: build and run the test suite in the default
# configuration, then rebuild the concurrency-sensitive targets under
# ThreadSanitizer and run the threaded tests (thread pool, service layer,
# budget accountant, EDA sessions, metrics registry) with race detection
# on, then rebuild the
# request-path targets under ASan+UBSan and run the service/robustness
# tests — no std::abort, overflow, or memory error may be reachable from
# request input. The ingest plane (csv_test, columnar_format_test) runs
# under ASan too: CSV bytes and DPXCOL headers are untrusted input. The
# ASan pass also drives three end-to-end smokes against the real binaries:
# a snapshot round-trip (charge, kill, restore, check the ledger), a
# byte-identical CSV -> DPXCOL -> CSV round trip through dpclustx_convert,
# a 2-worker dpclustx_router session over the line protocol, a
# socket-mode router smoke (concurrent unix-socket clients against
# --listen, relay byte-identity enforced by --verify-relay, a traced
# request returning one stitched timeline), and a Prometheus scrape smoke
# (curl /metrics + /healthz on the router's tcp listener and a worker's
# --worker-listen-base port, exposition checked line by line). The
# width-dispatched data-plane kernels run in both sanitizer passes
# (dataset_layout_test); the transport event loop and its e2e socket
# tests run under TSan (transport_test), and the zero-reparse relay
# scanner runs under ASan (json_relay_test) — worker output is untrusted
# once a worker has crashed mid-write.
#
# Kernel dispatch pass: every per-ISA kernel TU (generic/sse2/avx2/avx512,
# src/data/kernels) compiles unconditionally in the default build — a host
# without AVX-512 still compile-checks the AVX-512 TU. The layout test then
# reruns with DPCLUSTX_ISA forced to each level the host supports, so the
# cpuid clamp, the env override, and the cross-level bitwise-identity
# contract are all exercised from a cold process, plus once under ASan with
# dispatch clamped to generic (the in-test ScopedForceIsa sweep still
# raises to every supported level from there).
#
# Usage: scripts/check.sh [--skip-tsan] [--skip-asan]

set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_ASAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    *) echo "unknown flag '$arg'" \
            "(usage: scripts/check.sh [--skip-tsan] [--skip-asan])" >&2
       exit 2 ;;
  esac
done

echo "==> default build + full test suite"
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
(cd build && ctest --output-on-failure -j)

echo "==> kernel dispatch pass: forced-ISA rerun of the layout tests"
# The detected level comes from the measured binary itself, not from this
# script probing /proc/cpuinfo: `--version` ends with
# ", isa <active> (detected <level>), snapshot-format vN".
DETECTED="$(./build/tools/dpclustx_serve --version |
  sed -n 's/.*isa [^ ]* (detected \([^)]*\)).*/\1/p')"
LEVELS=(generic)
case "$DETECTED" in
  sse2) LEVELS+=(sse2) ;;
  avx2) LEVELS+=(sse2 avx2) ;;
  avx512) LEVELS+=(sse2 avx2 avx512) ;;
esac
echo "    detected '$DETECTED' -> forcing: ${LEVELS[*]}"
for level in "${LEVELS[@]}"; do
  (cd build && DPCLUSTX_ISA="$level" ctest --output-on-failure \
    -R '^(dataset_layout_test|parallel_equivalence_test)$' |
    tail -n 3 | sed "s/^/    [DPCLUSTX_ISA=$level] /")
done

if [[ "$SKIP_ASAN" == 1 ]]; then
  echo "==> ASan+UBSan pass skipped (--skip-asan)"
else
  echo "==> ASan+UBSan build + service/robustness tests"
  cmake -B build-asan -S . -DDPCLUSTX_SANITIZE=address >/dev/null
  cmake --build build-asan -j --target \
    service_test service_robustness_test json_test mechanisms_test \
    thread_pool_test dataset_layout_test obs_test snapshot_test \
    csv_test columnar_format_test json_relay_test \
    dpclustx_serve dpclustx_router dpclustx_convert \
    >/dev/null
  (cd build-asan &&
   ctest --output-on-failure \
     -R '^(service_test|service_robustness_test|json_test|mechanisms_test|thread_pool_test|dataset_layout_test|obs_test|snapshot_test|csv_test|columnar_format_test|json_relay_test)$')

  echo "==> ASan kernel dispatch smoke (DPCLUSTX_ISA=generic startup)"
  # Starts with dispatch clamped all the way down, then the in-test
  # ScopedForceIsa sweep raises through every supported level — so each
  # per-ISA TU's loads/stores run under ASan+UBSan once per check.
  (cd build-asan && DPCLUSTX_ISA=generic ctest --output-on-failure \
    -R '^dataset_layout_test$' >/dev/null)
  echo "    ASan forced-level sweep OK"

  echo "==> ASan smoke: snapshot round-trip over the line protocol"
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "$SMOKE_DIR"' EXIT
  # First life: load/cluster/charge, then EOF — the worker writes its final
  # snapshot on shutdown. Second life: restore from that snapshot (plus the
  # audit journal) and check the ledger survived exactly.
  build-asan/tools/dpclustx_serve --sync \
      --snapshot "$SMOKE_DIR/smoke.snap" \
      --audit-journal "$SMOKE_DIR/smoke.journal" \
      > "$SMOKE_DIR/first.out" 2>"$SMOKE_DIR/first.err" <<'EOF'
{"op":"load_dataset","name":"d","source":"synthetic","generator":"diabetes","rows":200,"seed":1,"id":"1"}
{"op":"cluster","dataset":"d","method":"k-means","k":3,"seed":2,"id":"2"}
{"op":"create_session","dataset":"d","session":"s","epsilon":1.0,"id":"3"}
{"op":"hist","session":"s","clustering":"default","attribute":"diab_0","epsilon":0.25,"id":"4"}
EOF
  build-asan/tools/dpclustx_serve --sync \
      --snapshot "$SMOKE_DIR/smoke.snap" \
      --audit-journal "$SMOKE_DIR/smoke.journal" \
      > "$SMOKE_DIR/second.out" 2>"$SMOKE_DIR/second.err" <<'EOF'
{"op":"budget","session":"s","id":"b"}
{"op":"hist","session":"s","clustering":"default","attribute":"diab_0","epsilon":0.25,"id":"h"}
EOF
  python3 - "$SMOKE_DIR/second.out" <<'PYEOF'
import json, sys
byid = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    byid[r["id"]] = r
b, h = byid["b"], byid["h"]
assert b["ok"] and abs(b["spent"] - 0.25) < 1e-12, b
assert h["ok"] and h["cache_hit"] and h["epsilon_charged"] == 0.0, h
print("    snapshot round-trip OK: ledger restored, repeat hist free")
PYEOF

  echo "==> ASan smoke: CSV -> DPXCOL -> CSV round trip"
  # The converter must be lossless: re-encoding the DPXCOL back to CSV
  # reproduces the input byte for byte (ingest normalizes nothing — same
  # labels, same order, same quoting decisions on the way back out).
  cat > "$SMOKE_DIR/roundtrip.csv" <<'EOF'
color,size,notes
red,small,"has, comma"
blue,large,"has ""quote"""
red,large,plain
EOF
  build-asan/tools/dpclustx_convert to-dpxcol \
      "$SMOKE_DIR/roundtrip.csv" "$SMOKE_DIR/roundtrip.dpxcol" --verify \
      2>/dev/null
  build-asan/tools/dpclustx_convert verify "$SMOKE_DIR/roundtrip.dpxcol" \
      2>/dev/null
  build-asan/tools/dpclustx_convert to-csv \
      "$SMOKE_DIR/roundtrip.dpxcol" "$SMOKE_DIR/roundtrip_back.csv" \
      2>/dev/null
  diff "$SMOKE_DIR/roundtrip.csv" "$SMOKE_DIR/roundtrip_back.csv"
  echo "    convert round trip OK: CSV -> DPXCOL -> CSV is byte-identical"

  echo "==> ASan smoke: 2-worker router end-to-end"
  build-asan/tools/dpclustx_router --workers 2 \
      --serve build-asan/tools/dpclustx_serve \
      --state-dir "$SMOKE_DIR/router" -- --sync \
      > "$SMOKE_DIR/router.out" 2>"$SMOKE_DIR/router.err" <<'EOF'
{"op":"load_dataset","name":"d1","source":"synthetic","generator":"diabetes","rows":200,"seed":1,"id":"1"}
{"op":"load_dataset","name":"d2","source":"synthetic","generator":"diabetes","rows":200,"seed":2,"id":"2"}
{"op":"cluster","dataset":"d1","method":"k-means","k":3,"seed":3,"id":"3"}
{"op":"create_session","dataset":"d1","session":"s1","epsilon":1.0,"id":"4"}
{"op":"hist","session":"s1","clustering":"default","attribute":"diab_0","epsilon":0.1,"id":"5"}
{"op":"budget","session":"s1","id":"6"}
{"op":"save_snapshot","path":"/tmp/nope","id":"7"}
{"op":"ping","id":"8"}
EOF
  python3 - "$SMOKE_DIR/router.out" <<'PYEOF'
import json, sys
byid = {}
for line in open(sys.argv[1]):
    r = json.loads(line)
    byid[r["id"]] = r
for i in "12345":
    assert byid[i]["ok"], byid[i]
assert abs(byid["6"]["spent"] - 0.1) < 1e-12, byid["6"]
assert not byid["7"]["ok"], byid["7"]
assert byid["7"]["error"]["code"] == "FailedPrecondition", byid["7"]
workers = byid["8"]["workers"]
assert "shard-0" in workers and "shard-1" in workers, byid["8"]
print("    router smoke OK: sharded flow, budget exact, snapshots refused")
PYEOF

  echo "==> ASan smoke: socket-mode router, concurrent clients"
  # The router serves a unix socket (--listen) with the splice relay
  # cross-checked against the full-parse path on every response
  # (--verify-relay aborts on any byte mismatch). Stdin stays open via a
  # fifo — EOF there is the graceful-shutdown signal.
  mkfifo "$SMOKE_DIR/router.stdin"
  build-asan/tools/dpclustx_router --workers 2 \
      --serve build-asan/tools/dpclustx_serve \
      --state-dir "$SMOKE_DIR/router_sock" \
      --listen "unix:$SMOKE_DIR/router.sock" \
      --verify-relay -- --sync \
      < "$SMOKE_DIR/router.stdin" \
      > "$SMOKE_DIR/router_sock.out" 2>"$SMOKE_DIR/router_sock.err" &
  ROUTER_PID=$!
  exec 9> "$SMOKE_DIR/router.stdin"
  for _ in $(seq 1 200); do
    [[ -S "$SMOKE_DIR/router.sock" ]] && break
    sleep 0.05
  done
  [[ -S "$SMOKE_DIR/router.sock" ]] || {
    echo "router socket never appeared" >&2
    cat "$SMOKE_DIR/router_sock.err" >&2
    exit 1
  }
  python3 - "$SMOKE_DIR/router.sock" <<'PYEOF'
import json, re, socket, sys, threading

SOCK = sys.argv[1]

def client():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(SOCK)
    return s, s.makefile("rb")

def call(s, f, req):
    s.sendall((json.dumps(req) + "\n").encode())
    return json.loads(f.readline())

# Setup over one connection: a dataset, a clustering.
s, f = client()
for req in (
    {"op": "load_dataset", "name": "d", "source": "synthetic",
     "generator": "diabetes", "rows": 200, "seed": 1, "id": "s1"},
    {"op": "cluster", "dataset": "d", "method": "k-means", "k": 3,
     "seed": 2, "id": "s2"},
):
    r = call(s, f, req)
    assert r["ok"] and r["id"] == req["id"], r

failures = []

def tenant(c):
    try:
        cs, cf = client()
        sess = f"sock-s{c}"
        r = call(cs, cf, {"op": "create_session", "dataset": "d",
                          "session": sess, "epsilon": 1.0,
                          "id": f"c{c}-create"})
        assert r["ok"], r
        r = call(cs, cf, {"op": "hist", "session": sess,
                          "clustering": "default", "attribute": "diab_0",
                          "epsilon": 0.1 + 0.01 * c, "id": f"c{c}-hist"})
        assert r["ok"], r
        # Pipelined burst: 8 budget reads in flight, FIFO ids back.
        for i in range(8):
            cs.sendall((json.dumps({"op": "budget", "session": sess,
                                    "id": f"c{c}-b{i}"}) + "\n").encode())
        for i in range(8):
            r = json.loads(cf.readline())
            assert r["ok"] and r["id"] == f"c{c}-b{i}", r
        cs.close()
    except Exception as e:  # noqa: BLE001 - collected for the main thread
        failures.append(f"client {c}: {e!r}")

threads = [threading.Thread(target=tenant, args=(c,)) for c in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert not failures, failures

# Garbage frame: rejected on that connection only, which stays usable.
g, gf = client()
g.sendall(b"this is not json\n")
r = json.loads(gf.readline())
assert not r["ok"] and r["error"]["code"] == "InvalidArgument", r
r = call(g, gf, {"op": "ping", "id": "after-garbage"})
assert r["ok"] and r["id"] == "after-garbage", r

r = call(g, gf, {"op": "_router_status", "id": "st"})
assert r["ok"] and all("pending" in w for w in r["workers"]), r

# Connection counts are registry series: scrape them over the same socket
# (it answers HTTP too). Open: g, plus the scrape itself.
h = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
h.connect(SOCK)
h.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
text = h.makefile("rb").read().decode()
m = re.search(r"^dpclustx_transport_active_connections (\d+)$", text, re.M)
assert m and int(m.group(1)) >= 2, text

# Traced request: the response must carry one stitched end-to-end timeline
# (router spans + the worker's own tree) under a single trace id — and with
# --verify-relay on, the _tc splice is cross-checked byte-for-byte against
# the full-parse path on the way in.
r = call(g, gf, {"op": "schema", "dataset": "d", "trace": True,
                 "id": "traced"})
assert r["ok"] and r["trace_id"].startswith("t"), r
spans = [c["name"] for c in r["trace"]["children"]]
assert spans == ["parse", "shard_pick", "relay_splice",
                 "worker_roundtrip", "write_back"], spans
roundtrip = r["trace"]["children"][3]
names = [c["name"] for c in roundtrip["children"]]
assert "worker_queue_wait" in names and "request" in names, roundtrip

print("    socket smoke OK: 4 concurrent tenants, garbage rejected"
      " per-connection, relay verified byte-identical, timeline stitched")
PYEOF
  exec 9>&-
  wait "$ROUTER_PID"
  if grep -q . "$SMOKE_DIR/router_sock.err"; then
    # --verify-relay mismatches and sanitizer reports land on stderr.
    if grep -Eq 'relay verify|ERROR|Sanitizer' "$SMOKE_DIR/router_sock.err"
    then
      echo "router stderr reported a failure:" >&2
      cat "$SMOKE_DIR/router_sock.err" >&2
      exit 1
    fi
  fi

  echo "==> ASan smoke: Prometheus scrape endpoints (router + workers, tcp)"
  # Real curl against the same tcp listeners the line protocol serves: the
  # router exposes its telemetry plane (per-worker labeled series) and each
  # worker its own registry (including the ISA dispatch gauge) — no sidecar.
  HTTP_PORT=$((24000 + RANDOM % 8000))
  WORKER_BASE=$((HTTP_PORT + 1))
  mkfifo "$SMOKE_DIR/scrape.stdin"
  build-asan/tools/dpclustx_router --workers 2 \
      --serve build-asan/tools/dpclustx_serve \
      --state-dir "$SMOKE_DIR/router_scrape" \
      --listen "tcp:127.0.0.1:$HTTP_PORT" \
      --worker-listen-base "$WORKER_BASE" -- --sync \
      < "$SMOKE_DIR/scrape.stdin" \
      > "$SMOKE_DIR/scrape.out" 2>"$SMOKE_DIR/scrape.err" &
  SCRAPE_PID=$!
  exec 8> "$SMOKE_DIR/scrape.stdin"
  for _ in $(seq 1 200); do
    curl -sf -o /dev/null "http://127.0.0.1:$HTTP_PORT/healthz" && break
    sleep 0.05
  done
  curl -sf "http://127.0.0.1:$HTTP_PORT/healthz" | grep -q '^ok$'
  curl -sf "http://127.0.0.1:$HTTP_PORT/ready" | grep -q '^ready$'
  curl -sf "http://127.0.0.1:$HTTP_PORT/metrics" > "$SMOKE_DIR/router.prom"
  curl -sf "http://127.0.0.1:$WORKER_BASE/metrics" > "$SMOKE_DIR/worker.prom"
  curl -sf "http://127.0.0.1:$WORKER_BASE/healthz" | grep -q '^ok$'
  python3 - "$SMOKE_DIR/router.prom" "$SMOKE_DIR/worker.prom" <<'PYEOF'
import re, sys
SAMPLE = re.compile(
    r'^[A-Za-z_:][A-Za-z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+$|^[#].*$')
for path in sys.argv[1:3]:
    text = open(path).read()
    assert text, f"{path} is empty"
    for line in text.splitlines():
        assert SAMPLE.match(line), f"malformed exposition line: {line!r}"
router, worker = [open(p).read() for p in sys.argv[1:3]]
assert 'dpclustx_router_worker_alive{worker="shard-0"} 1' in router, router
assert 'dpclustx_router_worker_latency_micros_bucket{worker="shard-1",le="+Inf"}' in router
assert "dpclustx_isa_level{" in worker, worker
assert "dpclustx_transport_http_requests_total" in worker
print("    scrape smoke OK: router fleet series labeled per worker,"
      " worker exposes isa gauge, all lines well-formed")
PYEOF
  exec 8>&-
  wait "$SCRAPE_PID"
fi

if [[ "$SKIP_TSAN" == 1 ]]; then
  echo "==> TSan pass skipped (--skip-tsan)"
else
  echo "==> ThreadSanitizer build + threaded tests"
  cmake -B build-tsan -S . -DDPCLUSTX_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target \
    thread_pool_test service_test privacy_budget_test eda_session_test \
    parallel_equivalence_test dataset_layout_test obs_test \
    transport_test \
    >/dev/null
  # DPCLUSTX_THREADS=8 widens the shared compute pool so the ParallelFor
  # kernels genuinely interleave under TSan even on narrow CI hosts.
  # transport_test races the epoll loop against concurrent ClientChannel
  # threads (and forks the TSan-built router for the socket e2e cases).
  (cd build-tsan &&
   DPCLUSTX_THREADS=8 ctest --output-on-failure \
     -R '^(thread_pool_test|service_test|privacy_budget_test|eda_session_test|parallel_equivalence_test|dataset_layout_test|obs_test|transport_test)$')
fi

echo "==> all checks passed"
