#!/usr/bin/env bash
# Tier-1 verification matrix, runnable locally or from CI:
#   1. Release + OpenMP            (the configuration benchmarks run in;
#                                   also builds, without running, perfbench/)
#   2. Debug + ASan/UBSan          (memory + UB coverage for the parallel paths)
#   3. Release, OpenMP disabled    (the exactly-deterministic serial fallback)
#   4. TSan, OpenMP disabled       (data-race coverage for the concurrent
#      query engine: clique + parallel + snapshot + service + net + obs +
#      order + triangle labels only. OpenMP stays off because libgomp is not
#      TSan-instrumented and would drown the report in false positives; the
#      concurrency under test comes from std::threads.)
#
# Each config runs the full ctest suite (tsan: the labels listed above):
#   cmake -B <dir> -S . && cmake --build <dir> -j && ctest --test-dir <dir>
#
# Usage: ./ci.sh [config ...]   with configs from: release asan serial tsan
set -euo pipefail
cd "$(dirname "$0")"

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

# Prefer Ninja when available (CI installs it).
if command -v ninja >/dev/null 2>&1; then
  export CMAKE_GENERATOR="${CMAKE_GENERATOR:-Ninja}"
fi
configs=("$@")
[ ${#configs[@]} -eq 0 ] && configs=(release asan serial tsan)

run_config() {
  local name="$1"; shift
  local dir="build-ci-${name}"
  local label_args=()
  if [ "${name}" = "tsan" ]; then
    # The race-sensitive surfaces: the concurrent engine/batch suites, the
    # parallel substrate, concurrent queries over snapshot-loaded engines,
    # the multi-graph CliqueService, the TCP front end (answer cache +
    # admission + server threads), the telemetry layer the hot paths
    # write into (per-thread counter stripes, trace ring, slow-query log),
    # and the preparation kernels that concurrent prepares run at once.
    label_args=(-L "clique|parallel|snapshot|service|net|obs|order|triangle")
  fi
  echo "==== [${name}] configure ===="
  cmake -B "${dir}" -S . "$@"
  echo "==== [${name}] build ===="
  cmake --build "${dir}" -j "${jobs}"
  if [ "${name}" = "release" ]; then
    echo "==== [${name}] ISA gate (objdump) ===="
    isa_gate_check "${dir}"
    # The committed benchmark is its own CMake project over the library
    # (perfbench/CMakeLists.txt). Build it, without running it, so an API
    # change that breaks it fails here rather than in the benchmark.
    echo "==== [${name}] build perfbench ===="
    cmake -S perfbench -B "${dir}/perfbench" -DCMAKE_BUILD_TYPE=Release
    cmake --build "${dir}/perfbench" -j "${jobs}"
  fi
  echo "==== [${name}] ctest ===="
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}" ${label_args[@]+"${label_args[@]}"}
  if [ "${name}" = "release" ]; then
    # The whole suite again with the bit-kernel dispatch pinned to scalar:
    # proves every result is backend-independent end to end, and keeps the
    # portable fallback a first-class, fully-tested configuration. (The
    # vector backends themselves run under ASan/UBSan/TSan via the default
    # dispatch in the other configs plus the per-backend parity tests.)
    echo "==== [${name}] ctest (C3_KERNEL=scalar) ===="
    C3_KERNEL=scalar ctest --test-dir "${dir}" --output-on-failure -j "${jobs}"
    # Perf-trajectory smoke: a small prepared k-sweep per algorithm. Emits
    # BENCH_pr2.json (prepare/search seconds + counts) and fails on any
    # cross-algorithm count mismatch. A missing binary is an error, not a
    # skip — otherwise the gate would silently stop existing.
    echo "==== [${name}] bench smoke (prepared sweep) ===="
    if [ ! -x "${dir}/bench/bench_prepared_sweep" ]; then
      echo "bench_prepared_sweep not built (is C3_BUILD_BENCH off?)" >&2
      exit 1
    fi
    "${dir}/bench/bench_prepared_sweep" --out BENCH_pr2.json
    # Snapshot smoke: cold prepare vs mmap open per smoke graph, counts
    # cross-checked cold vs loaded. Emits BENCH_pr4.json (open/prepare
    # speedup — the acceptance bar is >= 10x on the largest graph).
    echo "==== [${name}] bench smoke (snapshot) ===="
    if [ ! -x "${dir}/bench/bench_snapshot" ]; then
      echo "bench_snapshot not built (is C3_BUILD_BENCH off?)" >&2
      exit 1
    fi
    "${dir}/bench/bench_snapshot" --out BENCH_pr4.json
    # Server smoke: the request mix over loopback TCP, N concurrent clients,
    # cold cache vs warm cache, every wire answer cross-checked against a
    # direct service run. Emits BENCH_pr6.json.
    echo "==== [${name}] bench smoke (server) ===="
    if [ ! -x "${dir}/bench/bench_server" ]; then
      echo "bench_server not built (is C3_BUILD_BENCH off?)" >&2
      exit 1
    fi
    "${dir}/bench/bench_server" --out BENCH_pr6.json
    # Kernel smoke: the fused intersect kernels per backend (micro) and the
    # smoke graphs counted scalar vs host-vector per algorithm (end-to-end),
    # counts cross-checked backend vs backend. Emits BENCH_pr7.json.
    echo "==== [${name}] bench smoke (kernels) ===="
    if [ ! -x "${dir}/bench/bench_kernels" ]; then
      echo "bench_kernels not built (is C3_BUILD_BENCH off?)" >&2
      exit 1
    fi
    "${dir}/bench/bench_kernels" --out BENCH_pr7.json
    # Observability smoke: exposition syntax + counter monotonicity across
    # scrapes + instrumented-vs-dark hot-path overhead (budget 2%, min of
    # reps). Emits BENCH_pr9.json.
    echo "==== [${name}] bench smoke (observability) ===="
    if [ ! -x "${dir}/bench/bench_obs" ]; then
      echo "bench_obs not built (is C3_BUILD_BENCH off?)" >&2
      exit 1
    fi
    "${dir}/bench/bench_obs" --out BENCH_pr9.json --reps 7
    # Wire-level metrics smoke: a real c3serve on an ephemeral port, queries
    # driven through the socket, `metrics` scraped twice and checked for
    # valid exposition + monotonically increasing request counters.
    echo "==== [${name}] c3serve metrics smoke ===="
    metrics_smoke "${dir}"
  fi
}

# On x86-64, checks the per-file ISA gating in the built objects: the POPCNT
# search build (recursive_popcnt.cpp) must run hardware POPCNT and never call
# libgcc's __popcountdi2, and no object outside the ISA-gated TUs (that one
# and bitkernels_avx2/avx512.cpp) may contain a popcnt instruction — the
# library must still start on hardware without it. A missing objdump is an
# error, not a skip.
isa_gate_check() {
  local dir="$1"
  case "$(uname -m)" in
    x86_64|amd64) ;;
    *) echo "ISA gate: not x86-64, nothing to check"; return 0 ;;
  esac
  if ! command -v objdump >/dev/null 2>&1; then
    echo "objdump not found (binutils) — the ISA gate cannot run" >&2
    exit 1
  fi
  local fast
  fast="$(find "${dir}" -name 'recursive_popcnt.cpp.o' -print -quit)"
  if [ -z "${fast}" ]; then
    echo "recursive_popcnt.cpp.o not found under ${dir}" >&2
    exit 1
  fi
  # No `grep -q` here: under pipefail its early exit would SIGPIPE objdump
  # and turn a match into a failed pipeline.
  if objdump -dr "${fast}" | grep '__popcountdi2' >/dev/null; then
    echo "${fast} calls __popcountdi2: the POPCNT search build lost its -mpopcnt" >&2
    exit 1
  fi
  if ! objdump -d "${fast}" | grep -P '\tpopcnt\s' >/dev/null; then
    echo "${fast} has no popcnt instruction: is C3_SEARCH_POPCNT defined for it?" >&2
    exit 1
  fi
  local obj offenders=()
  while IFS= read -r obj; do
    case "$(basename "${obj}")" in
      bitkernels_avx2.cpp.o|bitkernels_avx512.cpp.o|recursive_popcnt.cpp.o) continue ;;
    esac
    if objdump -d "${obj}" | grep -P '\tpopcnt\s' >/dev/null; then offenders+=("${obj}"); fi
  done < <(find "${dir}" -name '*.o')
  if [ ${#offenders[@]} -gt 0 ]; then
    echo "popcnt instructions outside the ISA-gated TUs:" >&2
    printf '  %s\n' "${offenders[@]}" >&2
    exit 1
  fi
  echo "ISA gate ok: ${fast} runs POPCNT; no other object does"
}

# Starts c3serve --demo on an ephemeral port, drives queries over /dev/tcp,
# scrapes `metrics` twice, and validates the exposition: the serving counters
# must be present, parse as numbers, and increase between the scrapes.
metrics_smoke() {
  local dir="$1"
  if [ ! -x "${dir}/examples/c3serve" ]; then
    echo "c3serve not built" >&2
    exit 1
  fi
  local log port pid
  log="$(mktemp)"
  "${dir}/examples/c3serve" --demo --port 0 >"${log}" 2>&1 &
  pid=$!
  trap 'kill "${pid}" 2>/dev/null || true' RETURN
  # The port line is printed and flushed before the accept loop starts.
  for _ in $(seq 1 50); do
    port="$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "${log}" | head -1)"
    [ -n "${port}" ] && break
    kill -0 "${pid}" 2>/dev/null || { echo "c3serve exited early:" >&2; cat "${log}" >&2; exit 1; }
    sleep 0.1
  done
  if [ -z "${port}" ]; then
    echo "c3serve never reported a port:" >&2; cat "${log}" >&2; exit 1
  fi

  # One connection per step via /dev/tcp (no nc dependency). `metrics` ends
  # with "# EOF"; queries answer one line each.
  wire() {  # wire <request...> — sends each argument as one request line
    local req out
    exec 3<>"/dev/tcp/127.0.0.1/${port}"
    for req in "$@"; do printf '%s\n' "${req}" >&3; done
    printf 'quit\n' >&3
    out="$(cat <&3)"
    exec 3<&- 3>&-
    printf '%s\n' "${out}"
  }
  requests_sample() {  # total c3_requests_total across instances in a scrape
    printf '%s\n' "$1" | awk '/^c3_requests_total/ { sum += $NF } END { printf "%d", sum }'
  }

  local scrape1 scrape2 r1 r2
  wire "social count 4" "er hasclique 3" "social spectrum 5" >/dev/null
  # The connection also carries the closing "bye"; the exposition proper
  # ends at "# EOF".
  scrape1="$(wire "metrics" | sed -n '1,/^# EOF$/p')"
  printf '%s\n' "${scrape1}" | grep -q '^# EOF$' || {
    echo "metrics scrape missing # EOF" >&2; exit 1; }
  printf '%s\n' "${scrape1}" | grep -q '^# TYPE c3_requests_total counter$' || {
    echo "metrics scrape missing c3_requests_total TYPE line" >&2; exit 1; }
  printf '%s\n' "${scrape1}" | grep -q '^c3_stage_seconds{stage="search",quantile="0.5"}' || {
    echo "metrics scrape missing per-stage latency summaries" >&2; exit 1; }
  # Every sample line must end in a number (integer or float, possibly
  # negative or exponent-form).
  if printf '%s\n' "${scrape1}" | grep -v '^#' | grep -qv ' -\?[0-9.][0-9.eE+-]*$'; then
    echo "metrics scrape has an unparseable sample line:" >&2
    printf '%s\n' "${scrape1}" | grep -v '^#' | grep -v ' -\?[0-9.][0-9.eE+-]*$' >&2
    exit 1
  fi
  wire "social count 5" "er count 4" >/dev/null
  scrape2="$(wire "metrics" | sed -n '1,/^# EOF$/p')"
  r1="$(requests_sample "${scrape1}")"
  r2="$(requests_sample "${scrape2}")"
  if [ -z "${r1}" ] || [ -z "${r2}" ] || [ "${r2}" -le "${r1}" ]; then
    echo "c3_requests_total not monotonic across scrapes (${r1} -> ${r2})" >&2
    exit 1
  fi
  kill "${pid}" 2>/dev/null || true
  wait "${pid}" 2>/dev/null || true
  rm -f "${log}"
  trap - RETURN
  echo "metrics smoke ok: requests ${r1} -> ${r2}"
}

for config in "${configs[@]}"; do
  case "${config}" in
    release) run_config release -DCMAKE_BUILD_TYPE=Release -DC3_WERROR=ON ;;
    asan)    run_config asan -DCMAKE_BUILD_TYPE=Debug -DC3_SANITIZE=ON -DC3_WERROR=ON ;;
    serial)  run_config serial -DCMAKE_BUILD_TYPE=Release -DC3_ENABLE_OPENMP=OFF -DC3_WERROR=ON ;;
    tsan)    run_config tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DC3_SANITIZE_THREAD=ON \
                        -DC3_ENABLE_OPENMP=OFF -DC3_WERROR=ON ;;
    *) echo "unknown config '${config}' (expected: release asan serial tsan)" >&2; exit 2 ;;
  esac
done

echo "==== all configs green ===="
