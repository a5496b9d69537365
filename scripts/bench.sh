#!/usr/bin/env bash
# Throughput + event-list benchmark: runs the `perf` scenario family — now
# including the message-level `perf_messages` workload under all three
# TimerService strategies — plus a fig5-scale parameter study in a Release
# build and writes BENCH_<n>.json, one point on the repo's perf trajectory.
#
# Usage: scripts/bench.sh [build-dir] [out-file]
#   P2PS_BENCH_SEED    seed for the perf runs          (default 2002)
#   P2PS_BENCH_SCALE   population divisor              (default 1 = full)
#   P2PS_BENCH_REPS    timed repetitions per backend   (default 3, best-of)
#
# Output schema (BENCH_10.json):
#   host                       detected cores + CPU model: the context every
#                              wall-clock number below is meaningless without
#   sharded.thread_scaling     perf_sharded_scale --shards 8 timed at
#                              --shard-threads 1/2/4/8 (best-of-reps each):
#                              the wall-clock-only knob's scaling matrix —
#                              expect ~1x on a single-core container
#   sharded.windows_fused      the adaptive-lookahead dispatch split
#   sharded.directory_flushes  (docs/sharding.md, PR 10): dispatches vs
#                              absorbed sub-windows, mean sub-window span,
#                              and O(due-joins) directory publications —
#                              after a fusion-axis parity verify (fusion
#                              on/off x --shards 1/4/8, byte-identical)
#   telemetry                  perf_sharded_scale timed with --telemetry
#                              attached vs without: the observability
#                              layer's overhead gate (<= 3% wall clock,
#                              docs/observability.md), snapshot count
#                              (>= 10) and a schema check of the stream
#                              via scripts/check_telemetry.py — the PR-9
#                              headline
#   sharded_10m                perf_sharded_10m (10,020,000 peers, 8
#                              shards) after a full-scale --shards 1/4/8
#                              + --shard-threads byte-parity verify: wall
#                              clock, events/sec, peak RSS and bytes/peer
#                              (must be <= 48 — the compact peer-state
#                              acceptance gate, docs/memory.md) — the
#                              PR-8 headline
#   sharded                    perf_sharded_scale (1,002,000 peers, 8
#                              shards) after a full-scale --shards 1/4/8
#                              byte-parity verify: wall clock, total and
#                              per-shard events/sec, the largest per-shard
#                              peak event list, peak RSS and the window /
#                              cross-shard exchange counts — the PR-7
#                              headline (docs/sharding.md)
#   single_run                 perf_steady wall/events-per-sec per backend
#                              (best-of-reps; the PR-2 headline comparison)
#   peak_event_list            fig5-scale run: lazy peak vs the eager
#                              baseline, now with the timer/non-timer split
#   timers                     perf_messages under --timers events (the
#                              PR-4 event-per-timer baseline) vs wheel vs
#                              lazy: wall clock, events executed and the
#                              peak event list each strategy leaves — what
#                              the TimerService buys (docs/timers.md)
#   sweep                      8-point parameter study: serial vs
#                              multi-threaded wall clock on this host
#   cores                      detected cores (the >=3x sweep speedup
#                              acceptance applies on >=4-core hosts; on a
#                              single-core container expect ~1x and read
#                              only the best-of single-run numbers)
#
# Timing lives out here, not in the scenario JSON: scenario output must stay
# byte-deterministic so the pre-timing runs below can verify the build
# (determinism + backend parity + timer parity + thread-count parity)
# before a number enters the trajectory.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_file="${2:-${repo_root}/BENCH_10.json}"
seed="${P2PS_BENCH_SEED:-2002}"
scale="${P2PS_BENCH_SCALE:-1}"
reps="${P2PS_BENCH_REPS:-3}"
scenario="perf_steady"
cores="$(nproc)"
# Host context: every wall-clock number below is a property of this
# machine; record what it was. The model-name scrape tolerates absence
# (non-x86 /proc/cpuinfo layouts) rather than failing the bench.
cpu_model="$(awk -F': *' '/^model name/ {print $2; exit}' /proc/cpuinfo \
    2> /dev/null || true)"
cpu_model="${cpu_model:-unknown}"

echo "==> configure + build (Release)"
cmake -B "${build_dir}" -S "${repo_root}" > /dev/null
build_type="$(grep -E '^CMAKE_BUILD_TYPE' "${build_dir}/CMakeCache.txt" | cut -d= -f2)"
if [ "${build_type}" != "Release" ] && [ "${build_type}" != "RelWithDebInfo" ]; then
  echo "FAIL: build dir '${build_dir}' is configured as '${build_type:-<empty>}';" \
       "benchmarks need an optimized build (delete the dir or pass another)" >&2
  exit 1
fi
cmake --build "${build_dir}" -j "${cores}" > /dev/null
runner="${build_dir}/src/p2ps_run"

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

now_ms() { date +%s%N | sed 's/......$//'; }

echo "==> verify: determinism + backend parity (untimed)"
"${runner}" "${scenario}" --seed "${seed}" --scale "${scale}" --compact \
    --event-list heap > "${tmp_dir}/heap.json"
"${runner}" "${scenario}" --seed "${seed}" --scale "${scale}" --compact \
    --event-list calendar > "${tmp_dir}/calendar.json"
cmp "${tmp_dir}/heap.json" "${tmp_dir}/calendar.json" || {
  echo "FAIL: ${scenario} differs between event-list backends" >&2
  exit 1
}

events="$(grep -o '"events_executed":[0-9]*' "${tmp_dir}/heap.json" | head -1 | cut -d: -f2)"
peak_peers="$(grep -o '"population":[0-9]*' "${tmp_dir}/heap.json" | head -1 | cut -d: -f2)"
steady_peak="$(grep -o '"peak_event_list":[0-9]*' "${tmp_dir}/heap.json" | head -1 | cut -d: -f2)"

echo "==> single-run timing (${reps} reps per backend, best-of)"
best_ms_heap=0
best_ms_calendar=0
for backend in heap calendar; do
  best=""
  for rep in $(seq "${reps}"); do
    start="$(now_ms)"
    "${runner}" "${scenario}" --seed "${seed}" --scale "${scale}" --compact \
        --event-list "${backend}" > /dev/null
    elapsed=$(( $(now_ms) - start ))
    echo "    ${scenario} ${backend} rep ${rep}: ${elapsed} ms"
    if [ -z "${best}" ] || [ "${elapsed}" -lt "${best}" ]; then best="${elapsed}"; fi
  done
  eval "best_ms_${backend}=${best}"
done

eps() { echo $(( $1 * 1000 / ($2 > 0 ? $2 : 1) )); }
eps_heap="$(eps "${events}" "${best_ms_heap}")"
eps_calendar="$(eps "${events}" "${best_ms_calendar}")"
headline=$(( eps_heap > eps_calendar ? eps_heap : eps_calendar ))

echo "==> peak event list on the fig5-scale run (lazy vs eager baseline)"
"${runner}" fig5_admission_rate --seed "${seed}" --scale "${scale}" --compact \
    > "${tmp_dir}/fig5.json"
# The payload emits the peak and its timer share adjacently; take both
# from the run (DAC or NDAC) whose peak is largest, so the reported pair
# is internally consistent.
read -r fig5_peak fig5_peak_timers <<< "$(grep -oE \
    '"peak_event_list":[0-9]+,"peak_event_list_timers":[0-9]+' \
    "${tmp_dir}/fig5.json" \
    | awk -F'[:,]' '$2 + 0 >= m { m = $2 + 0; t = $4 + 0 } END { print m, t }')"
# The eager baseline scheduled one event per requester at t=0: its peak was
# >= the requester population, read from the run's own counters (overall
# first_requests) so it tracks the scenario and the divisor's rounding.
eager_peak="$(grep -o '"first_requests":[0-9]*' "${tmp_dir}/fig5.json" \
    | cut -d: -f2 | sort -n | tail -1)"
peak_reduction=$(( fig5_peak > 0 ? eager_peak / fig5_peak : 0 ))

echo "==> message-level verify: msg_fig5_scale backend + timer parity"
"${runner}" msg_fig5_scale --seed "${seed}" --scale "${scale}" --compact \
    > "${tmp_dir}/msg.default.json"
"${runner}" msg_fig5_scale --seed "${seed}" --scale "${scale}" --compact \
    --event-list calendar > "${tmp_dir}/msg.calendar.json"
cmp "${tmp_dir}/msg.default.json" "${tmp_dir}/msg.calendar.json" || {
  echo "FAIL: msg_fig5_scale differs between event-list backends" >&2
  exit 1
}
# Timer strategies may only change the event-core mechanics counters
# (docs/timers.md); msg_* payloads carry none, so they compare whole.
for strategy in lazy events; do
  "${runner}" msg_fig5_scale --seed "${seed}" --scale "${scale}" --compact \
      --timers "${strategy}" > "${tmp_dir}/msg.${strategy}.json"
  cmp "${tmp_dir}/msg.default.json" "${tmp_dir}/msg.${strategy}.json" || {
    echo "FAIL: msg_fig5_scale differs under --timers ${strategy}" >&2
    exit 1
  }
done

echo "==> timer-strategy timing: perf_messages x {events,wheel,lazy} (${reps} reps, best-of)"
for strategy in events wheel lazy; do
  "${runner}" perf_messages --seed "${seed}" --scale "${scale}" --compact \
      --timers "${strategy}" > "${tmp_dir}/perf_msg.${strategy}.json"
  best=""
  for rep in $(seq "${reps}"); do
    start="$(now_ms)"
    "${runner}" perf_messages --seed "${seed}" --scale "${scale}" --compact \
        --timers "${strategy}" > /dev/null
    elapsed=$(( $(now_ms) - start ))
    echo "    perf_messages ${strategy} rep ${rep}: ${elapsed} ms"
    if [ -z "${best}" ] || [ "${elapsed}" -lt "${best}" ]; then best="${elapsed}"; fi
  done
  eval "msg_best_ms_${strategy}=${best}"
  eval "msg_events_${strategy}=$(grep -o '"events_executed":[0-9]*' \
      "${tmp_dir}/perf_msg.${strategy}.json" | head -1 | cut -d: -f2)"
  eval "msg_peak_${strategy}=$(grep -o '"peak_event_list":[0-9]*' \
      "${tmp_dir}/perf_msg.${strategy}.json" | head -1 | cut -d: -f2)"
  eval "msg_peak_timers_${strategy}=$(grep -o '"peak_event_list_timers":[0-9]*' \
      "${tmp_dir}/perf_msg.${strategy}.json" | head -1 | cut -d: -f2)"
done
msg_sent="$(grep -o '"sent":[0-9]*' "${tmp_dir}/perf_msg.wheel.json" | head -1 | cut -d: -f2)"
timers_fired="$(grep -o '"timers_fired":[0-9]*' "${tmp_dir}/perf_msg.wheel.json" | head -1 | cut -d: -f2)"
msg_eps_events="$(eps "${msg_events_events}" "${msg_best_ms_events}")"
msg_eps_wheel="$(eps "${msg_events_wheel}" "${msg_best_ms_wheel}")"
msg_eps_lazy="$(eps "${msg_events_lazy}" "${msg_best_ms_lazy}")"
timer_peak_reduction=$(( msg_peak_wheel > 0 ? msg_peak_events / msg_peak_wheel : 0 ))
timer_speedup_x100=$(( msg_best_ms_wheel > 0 \
    ? msg_best_ms_events * 100 / msg_best_ms_wheel : 0 ))

# The sharded engine's full-scale acceptance gate: the merged
# perf_sharded_scale payload (1,002,000 peers at scale 1) must be
# byte-identical across the whole (fusion on/off) x (--shards 1/4/8)
# matrix before any sharded number enters the trajectory — window fusion
# is byte-invisible by construction (docs/sharding.md, "Adaptive
# lookahead"), and this is where that claim meets full scale. Mechanics
# stay off here so whole documents compare.
echo "==> sharded verify: perf_sharded_scale full-scale parity (fusion on/off x --shards 1/4/8)"
"${runner}" perf_sharded_scale --seed "${seed}" --scale "${scale}" --compact \
    --shards 8 > "${tmp_dir}/sharded.s8.json"
for shards in 1 4 8; do
  for fusion_args in "" "--fusion 1"; do
    # shards 8 + fused default is the reference itself; skip re-running it.
    if [ "${shards}" -eq 8 ] && [ -z "${fusion_args}" ]; then continue; fi
    # shellcheck disable=SC2086 — fusion_args is deliberately word-split
    "${runner}" perf_sharded_scale --seed "${seed}" --scale "${scale}" \
        --compact --shards "${shards}" ${fusion_args} \
        > "${tmp_dir}/sharded.variant.json"
    cmp "${tmp_dir}/sharded.s8.json" "${tmp_dir}/sharded.variant.json" || {
      echo "FAIL: perf_sharded_scale differs between the fused --shards 8" \
           "reference and --shards ${shards} ${fusion_args:-<fused default>}" >&2
      exit 1
    }
  done
done

echo "==> sharded timing: perf_sharded_scale --shards 8 (${reps} reps, best-of)"
"${runner}" perf_sharded_scale --seed "${seed}" --scale "${scale}" --compact \
    --shards 8 --mechanics > "${tmp_dir}/sharded.mech.json"
best=""
for rep in $(seq "${reps}"); do
  start="$(now_ms)"
  "${runner}" perf_sharded_scale --seed "${seed}" --scale "${scale}" \
      --compact --shards 8 > /dev/null
  elapsed=$(( $(now_ms) - start ))
  echo "    perf_sharded_scale rep ${rep}: ${elapsed} ms"
  if [ -z "${best}" ] || [ "${elapsed}" -lt "${best}" ]; then best="${elapsed}"; fi
done
sharded_best_ms="${best}"
sharded_population="$(grep -o '"population":[0-9]*' \
    "${tmp_dir}/sharded.mech.json" | head -1 | cut -d: -f2)"
# events_executed appears once per shard (the mechanics per_shard array).
sharded_events_list="$(grep -o '"events_executed":[0-9]*' \
    "${tmp_dir}/sharded.mech.json" | cut -d: -f2)"
sharded_events_total=0
for n in ${sharded_events_list}; do
  sharded_events_total=$(( sharded_events_total + n ))
done
sharded_peak_max="$(grep -o '"peak_event_list":[0-9]*' \
    "${tmp_dir}/sharded.mech.json" | cut -d: -f2 | sort -n | tail -1)"
sharded_rss="$(grep -o '"peak_rss_bytes":[0-9]*' \
    "${tmp_dir}/sharded.mech.json" | head -1 | cut -d: -f2)"
sharded_windows="$(grep -o '"windows":[0-9]*' \
    "${tmp_dir}/sharded.mech.json" | head -1 | cut -d: -f2)"
# The PR-10 mechanics: dispatches absorbed by window fusion, the mean
# sub-window span they covered, and how many times the membership
# directory actually published (O(due joins) epochs, not O(population)).
sharded_windows_fused="$(grep -o '"windows_fused":[0-9]*' \
    "${tmp_dir}/sharded.mech.json" | head -1 | cut -d: -f2)"
sharded_lookahead_avg_ms="$(grep -o '"lookahead_avg_ms":[0-9.]*' \
    "${tmp_dir}/sharded.mech.json" | head -1 | cut -d: -f2)"
sharded_directory_flushes="$(grep -o '"directory_flushes":[0-9]*' \
    "${tmp_dir}/sharded.mech.json" | head -1 | cut -d: -f2)"
sharded_cross="$(grep -o '"cross_shard_messages":[0-9]*' \
    "${tmp_dir}/sharded.mech.json" | head -1 | cut -d: -f2)"
sharded_eps_total="$(eps "${sharded_events_total}" "${sharded_best_ms}")"
sharded_per_shard_eps="$(for n in ${sharded_events_list}; do
  eps "${n}" "${sharded_best_ms}"
done | paste -sd, -)"

# The --shard-threads scaling matrix: the wall-clock-only knob timed at
# 1/2/4/8 workers (best-of-reps each). Threads never change bytes — the
# parity gates above hold for any count — so this is pure host context:
# on a single-core container expect ~1x and read it as such.
echo "==> sharded thread scaling: --shard-threads 1/2/4/8 (${reps} reps each, best-of)"
sharded_thread_scaling=""
for threads in 1 2 4 8; do
  best=""
  for rep in $(seq "${reps}"); do
    start="$(now_ms)"
    "${runner}" perf_sharded_scale --seed "${seed}" --scale "${scale}" \
        --compact --shards 8 --shard-threads "${threads}" > /dev/null
    elapsed=$(( $(now_ms) - start ))
    echo "    perf_sharded_scale --shard-threads ${threads} rep ${rep}: ${elapsed} ms"
    if [ -z "${best}" ] || [ "${elapsed}" -lt "${best}" ]; then best="${elapsed}"; fi
  done
  entry="{\"threads\": ${threads}, \"wall_ms\": ${best}}"
  sharded_thread_scaling="${sharded_thread_scaling:+${sharded_thread_scaling}, }${entry}"
done

# The PR-9 headline: telemetry must be out-of-band in wall clock too, not
# just in bytes. Re-time perf_sharded_scale with a live --telemetry stream
# (500 ms snapshots, so even a fast full-scale run delivers >= 10) and gate
# the overhead at 3% (docs/observability.md). Reps run as interleaved
# off/on pairs — best-of-off vs best-of-on from the same machine state —
# because a sequential layout lets cache/frequency warm-up masquerade as
# telemetry overhead. The payload must stay byte-identical with the sink
# attached and the stream must pass scripts/check_telemetry.py.
echo "==> telemetry overhead: perf_sharded_scale off/on interleaved (${reps} pairs, best-of)"
telemetry_file="${tmp_dir}/telemetry.jsonl"
telemetry_base_ms=""
telemetry_best_ms=""
for rep in $(seq "${reps}"); do
  start="$(now_ms)"
  "${runner}" perf_sharded_scale --seed "${seed}" --scale "${scale}" \
      --compact --shards 8 > /dev/null
  elapsed=$(( $(now_ms) - start ))
  echo "    perf_sharded_scale  -telemetry rep ${rep}: ${elapsed} ms"
  if [ -z "${telemetry_base_ms}" ] || [ "${elapsed}" -lt "${telemetry_base_ms}" ]; then
    telemetry_base_ms="${elapsed}"
  fi
  start="$(now_ms)"
  "${runner}" perf_sharded_scale --seed "${seed}" --scale "${scale}" \
      --compact --shards 8 --telemetry "${telemetry_file}" \
      --telemetry-interval 500 \
      > "${tmp_dir}/sharded.telemetry.json" 2> /dev/null
  elapsed=$(( $(now_ms) - start ))
  echo "    perf_sharded_scale  +telemetry rep ${rep}: ${elapsed} ms"
  if [ -z "${telemetry_best_ms}" ] || [ "${elapsed}" -lt "${telemetry_best_ms}" ]; then
    telemetry_best_ms="${elapsed}"
  fi
done
cmp "${tmp_dir}/sharded.s8.json" "${tmp_dir}/sharded.telemetry.json" || {
  echo "FAIL: perf_sharded_scale payload differs with --telemetry attached" >&2
  exit 1
}
telemetry_snapshots="$(grep -c '"type":"snapshot"' "${telemetry_file}")"
python3 "${repo_root}/scripts/check_telemetry.py" "${telemetry_file}" \
    --min-snapshots 1 || {
  echo "FAIL: telemetry stream failed the schema check" >&2
  exit 1
}
if [ "${scale}" -eq 1 ] && [ "${telemetry_snapshots}" -lt 10 ]; then
  echo "FAIL: full-scale perf_sharded_scale emitted only" \
       "${telemetry_snapshots} snapshots (expected >= 10 at the 500 ms" \
       "interval)" >&2
  exit 1
fi
telemetry_overhead_x100=$(( telemetry_base_ms > 0 \
    ? (telemetry_best_ms - telemetry_base_ms) * 10000 / telemetry_base_ms : 0 ))
if [ "${telemetry_best_ms}" -gt $(( telemetry_base_ms * 103 / 100 )) ]; then
  echo "FAIL: telemetry overhead $(( telemetry_overhead_x100 / 100 )).$((
      telemetry_overhead_x100 % 100 ))% exceeds the 3% gate" \
       "(${telemetry_base_ms} ms off -> ${telemetry_best_ms} ms on)" >&2
  exit 1
fi
echo "    off ${telemetry_base_ms} ms, on ${telemetry_best_ms} ms," \
     "${telemetry_snapshots} snapshots"

# The PR-8 headline: the ten-million-peer point. Full-scale byte-parity
# across --shards 1/4/8 plus a --shard-threads variant, then the memory
# numbers the compact peer-state campaign exists for — peak RSS and
# bytes/peer, gated at 48 when running at full scale (docs/memory.md).
# One timed rep by default (P2PS_BENCH_10M_REPS): a 10M run is minutes,
# and the byte-determinism verified above makes reps near-identical.
reps_10m="${P2PS_BENCH_10M_REPS:-1}"
echo "==> 10M verify: perf_sharded_10m full-scale parity (--shards 1/4/8 + threads)"
"${runner}" perf_sharded_10m --seed "${seed}" --scale "${scale}" --compact \
    --shards 8 > "${tmp_dir}/10m.s8.json"
for shards in 1 4; do
  "${runner}" perf_sharded_10m --seed "${seed}" --scale "${scale}" --compact \
      --shards "${shards}" > "${tmp_dir}/10m.s${shards}.json"
  cmp "${tmp_dir}/10m.s8.json" "${tmp_dir}/10m.s${shards}.json" || {
    echo "FAIL: perf_sharded_10m differs between --shards 8 and" \
         "--shards ${shards}" >&2
    exit 1
  }
done
"${runner}" perf_sharded_10m --seed "${seed}" --scale "${scale}" --compact \
    --shards 8 --shard-threads 4 > "${tmp_dir}/10m.s8t4.json"
cmp "${tmp_dir}/10m.s8.json" "${tmp_dir}/10m.s8t4.json" || {
  echo "FAIL: perf_sharded_10m differs between --shard-threads 1 and 4" >&2
  exit 1
}

echo "==> 10M timing: perf_sharded_10m --shards 8 (${reps_10m} reps, best-of)"
"${runner}" perf_sharded_10m --seed "${seed}" --scale "${scale}" --compact \
    --shards 8 --mechanics > "${tmp_dir}/10m.mech.json"
best=""
for rep in $(seq "${reps_10m}"); do
  start="$(now_ms)"
  "${runner}" perf_sharded_10m --seed "${seed}" --scale "${scale}" \
      --compact --shards 8 > /dev/null
  elapsed=$(( $(now_ms) - start ))
  echo "    perf_sharded_10m rep ${rep}: ${elapsed} ms"
  if [ -z "${best}" ] || [ "${elapsed}" -lt "${best}" ]; then best="${elapsed}"; fi
done
m10_best_ms="${best}"
m10_population="$(grep -o '"population":[0-9]*' \
    "${tmp_dir}/10m.mech.json" | head -1 | cut -d: -f2)"
m10_events_total=0
for n in $(grep -o '"events_executed":[0-9]*' "${tmp_dir}/10m.mech.json" \
    | cut -d: -f2); do
  m10_events_total=$(( m10_events_total + n ))
done
m10_rss="$(grep -o '"peak_rss_bytes":[0-9]*' \
    "${tmp_dir}/10m.mech.json" | head -1 | cut -d: -f2)"
m10_bytes_per_peer="$(grep -o '"bytes_per_peer":[0-9]*' \
    "${tmp_dir}/10m.mech.json" | head -1 | cut -d: -f2)"
m10_pool_allocs="$(grep -o '"pool_allocations":[0-9]*' \
    "${tmp_dir}/10m.mech.json" | head -1 | cut -d: -f2)"
m10_pool_reuses="$(grep -o '"pool_reuses":[0-9]*' \
    "${tmp_dir}/10m.mech.json" | head -1 | cut -d: -f2)"
m10_windows="$(grep -o '"windows":[0-9]*' \
    "${tmp_dir}/10m.mech.json" | head -1 | cut -d: -f2)"
m10_windows_fused="$(grep -o '"windows_fused":[0-9]*' \
    "${tmp_dir}/10m.mech.json" | head -1 | cut -d: -f2)"
m10_directory_flushes="$(grep -o '"directory_flushes":[0-9]*' \
    "${tmp_dir}/10m.mech.json" | head -1 | cut -d: -f2)"
m10_eps="$(eps "${m10_events_total}" "${m10_best_ms}")"
if [ "${scale}" -eq 1 ] && [ "${m10_bytes_per_peer}" -gt 48 ]; then
  echo "FAIL: perf_sharded_10m bytes/peer ${m10_bytes_per_peer} exceeds the" \
       "48-byte compact peer-state acceptance gate (docs/memory.md)" >&2
  exit 1
fi

# Interleaved serial/parallel pairs, best-of each, for the same reason the
# telemetry section interleaves: a sequential layout lets warm-up drift
# masquerade as a threading effect. --threads 1 takes the pool-free serial
# path (PR 10), so this also times that path against the worker pool.
echo "==> sweep: 8 points (perf_steady x 8 seeds, scale $((scale * 4))), serial vs ${cores} threads (${reps} pairs, best-of)"
sweep_args=(--sweep perf_steady --seeds 1,2,3,4,5,6,7,8
            --scales $(( scale * 4 )) --compact)
serial_ms=""
parallel_ms=""
for rep in $(seq "${reps}"); do
  start="$(now_ms)"
  "${runner}" "${sweep_args[@]}" --threads 1 > "${tmp_dir}/sweep.serial.json"
  elapsed=$(( $(now_ms) - start ))
  echo "    sweep serial   rep ${rep}: ${elapsed} ms"
  if [ -z "${serial_ms}" ] || [ "${elapsed}" -lt "${serial_ms}" ]; then
    serial_ms="${elapsed}"
  fi
  start="$(now_ms)"
  "${runner}" "${sweep_args[@]}" --threads "${cores}" > "${tmp_dir}/sweep.parallel.json"
  elapsed=$(( $(now_ms) - start ))
  echo "    sweep parallel rep ${rep}: ${elapsed} ms"
  if [ -z "${parallel_ms}" ] || [ "${elapsed}" -lt "${parallel_ms}" ]; then
    parallel_ms="${elapsed}"
  fi
done
cmp "${tmp_dir}/sweep.serial.json" "${tmp_dir}/sweep.parallel.json" || {
  echo "FAIL: sweep report differs between --threads 1 and --threads ${cores}" >&2
  exit 1
}
echo "    serial ${serial_ms} ms, ${cores}-thread ${parallel_ms} ms (best of ${reps})"
speedup_x100=$(( parallel_ms > 0 ? serial_ms * 100 / parallel_ms : 0 ))

cat > "${out_file}" <<EOF
{
  "bench": "adaptive-lookahead window fusion + O(due-joins) directory epochs",
  "scenario": "${scenario}",
  "seed": ${seed},
  "scale": ${scale},
  "cores": ${cores},
  "host": {"cores": ${cores}, "cpu_model": "${cpu_model}"},
  "events_executed": ${events},
  "peak_peers": ${peak_peers},
  "single_run": {
    "heap": {"wall_ms": ${best_ms_heap}, "events_per_sec": ${eps_heap}},
    "calendar": {"wall_ms": ${best_ms_calendar}, "events_per_sec": ${eps_calendar}},
    "peak_event_list": ${steady_peak}
  },
  "peak_event_list": {
    "scenario": "fig5_admission_rate",
    "eager_baseline": ${eager_peak},
    "lazy_peak": ${fig5_peak},
    "lazy_peak_timer_share": ${fig5_peak_timers},
    "reduction_factor": ${peak_reduction}
  },
  "timers": {
    "scenario": "perf_messages",
    "messages_sent": ${msg_sent},
    "timers_fired": ${timers_fired},
    "events": {
      "wall_ms": ${msg_best_ms_events},
      "events_executed": ${msg_events_events},
      "events_per_sec": ${msg_eps_events},
      "peak_event_list": ${msg_peak_events},
      "peak_event_list_timers": ${msg_peak_timers_events}
    },
    "wheel": {
      "wall_ms": ${msg_best_ms_wheel},
      "events_executed": ${msg_events_wheel},
      "events_per_sec": ${msg_eps_wheel},
      "peak_event_list": ${msg_peak_wheel},
      "peak_event_list_timers": ${msg_peak_timers_wheel}
    },
    "lazy": {
      "wall_ms": ${msg_best_ms_lazy},
      "events_executed": ${msg_events_lazy},
      "events_per_sec": ${msg_eps_lazy},
      "peak_event_list": ${msg_peak_lazy},
      "peak_event_list_timers": ${msg_peak_timers_lazy}
    },
    "peak_reduction_factor": ${timer_peak_reduction},
    "speedup_x100_events_to_wheel": ${timer_speedup_x100}
  },
  "telemetry": {
    "scenario": "perf_sharded_scale",
    "interval_ms": 500,
    "wall_ms_off": ${telemetry_base_ms},
    "wall_ms_on": ${telemetry_best_ms},
    "overhead_pct_x100": ${telemetry_overhead_x100},
    "overhead_gate_pct": 3,
    "snapshots": ${telemetry_snapshots},
    "payload_byte_identical": true,
    "stream_schema_checked": true
  },
  "sharded_10m": {
    "scenario": "perf_sharded_10m",
    "population": ${m10_population},
    "shards": 8,
    "parity_verified_shards": [1, 4, 8],
    "parity_verified_shard_threads": 4,
    "wall_ms": ${m10_best_ms},
    "events_executed_total": ${m10_events_total},
    "events_per_sec_total": ${m10_eps},
    "windows": ${m10_windows},
    "windows_fused": ${m10_windows_fused},
    "directory_flushes": ${m10_directory_flushes},
    "peak_rss_bytes": ${m10_rss},
    "bytes_per_peer": ${m10_bytes_per_peer},
    "bytes_per_peer_budget": 48,
    "pool_allocations": ${m10_pool_allocs},
    "pool_reuses": ${m10_pool_reuses}
  },
  "sharded": {
    "scenario": "perf_sharded_scale",
    "population": ${sharded_population},
    "shards": 8,
    "parity_verified_shards": [1, 4, 8],
    "parity_verified_fusion": [1, "default"],
    "wall_ms": ${sharded_best_ms},
    "events_executed_total": ${sharded_events_total},
    "events_per_sec_total": ${sharded_eps_total},
    "per_shard_events_per_sec": [${sharded_per_shard_eps}],
    "peak_event_list_max": ${sharded_peak_max},
    "peak_rss_bytes": ${sharded_rss},
    "windows": ${sharded_windows},
    "windows_fused": ${sharded_windows_fused},
    "lookahead_avg_ms": ${sharded_lookahead_avg_ms},
    "directory_flushes": ${sharded_directory_flushes},
    "cross_shard_messages": ${sharded_cross},
    "thread_scaling": [${sharded_thread_scaling}]
  },
  "sweep": {
    "points": 8,
    "reps": ${reps},
    "serial_wall_ms": ${serial_ms},
    "parallel_wall_ms": ${parallel_ms},
    "parallel_threads": ${cores},
    "speedup_x100": ${speedup_x100}
  },
  "events_per_sec": ${headline}
}
EOF
echo "==> wrote ${out_file}: ${events} events, best ${headline} events/sec" \
     "(heap ${eps_heap}, calendar ${eps_calendar});" \
     "fig5 peak ${fig5_peak} (${fig5_peak_timers} timers) vs eager" \
     "${eager_peak} (${peak_reduction}x);" \
     "timers: perf_messages peak ${msg_peak_events} (events) ->" \
     "${msg_peak_wheel} (wheel, ${timer_peak_reduction}x)," \
     "wall ${msg_best_ms_events}ms -> ${msg_best_ms_wheel}ms wheel /" \
     "${msg_best_ms_lazy}ms lazy;" \
     "sharded: ${sharded_population} peers / 8 shards, parity" \
     "fusion x 1/4/8 OK, ${sharded_events_total} events in" \
     "${sharded_best_ms}ms (${sharded_eps_total}/s)," \
     "${sharded_windows} dispatches + ${sharded_windows_fused} fused" \
     "(avg span ${sharded_lookahead_avg_ms}ms)," \
     "${sharded_directory_flushes} directory flushes," \
     "peak list ${sharded_peak_max}, RSS ${sharded_rss}B;" \
     "telemetry: ${telemetry_best_ms}ms on vs ${telemetry_base_ms}ms off" \
     "(overhead x100 = ${telemetry_overhead_x100}, gate 3%)," \
     "${telemetry_snapshots} snapshots;" \
     "10M: ${m10_population} peers / 8 shards, parity 1/4/8 + threads OK," \
     "${m10_events_total} events in ${m10_best_ms}ms (${m10_eps}/s)," \
     "${m10_directory_flushes} directory flushes," \
     "RSS ${m10_rss}B = ${m10_bytes_per_peer}B/peer (gate 48);" \
     "sweep ${serial_ms}ms serial -> ${parallel_ms}ms on ${cores} threads" \
     "(best of ${reps})"
