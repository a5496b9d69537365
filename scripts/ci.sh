#!/usr/bin/env bash
# CI entry point: tier-1 verify (configure + build + ctest) followed by a
# deterministic smoke pass of `p2ps_run` over every registered scenario.
#
# Usage: scripts/ci.sh [build-dir]
#   P2PS_CI_SEED   seed for the scenario smoke pass (default 2002)
#   P2PS_CI_SCALE  population divisor for the smoke pass (default 10)
#   P2PS_CI_REACH  set to 1 to end with the production-reach gate
#                  (scripts/reach.sh in <build-dir>-reach, about three
#                  minutes): every src/ function the scenarios and examples
#                  never run must be on scripts/reach_allowlist.txt.
#   P2PS_SANITIZE  opt-in sanitizer pass: 'address', 'undefined' or
#                  'thread'. The whole tier-1 + smoke run repeats under the
#                  instrumented build; use a dedicated build dir (sanitizer
#                  flags are cached). RSS-budget checks are skipped —
#                  sanitized RSS is not comparable to production RSS.
#                  Independently of this, every unsanitized run ends with
#                  an AddressSanitizer pass over the message-path suites
#                  in <build-dir>-asan and a ThreadSanitizer pass over the
#                  shard, sweep and obs suites in <build-dir>-tsan,
#                  preceded by a build-flavour pass that rebuilds p2ps_run
#                  in <build-dir>-flavour.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
seed="${P2PS_CI_SEED:-2002}"
scale="${P2PS_CI_SCALE:-10}"
sanitize="${P2PS_SANITIZE:-}"

if [ -n "${sanitize}" ]; then
  echo "==> tier-1: configure (warnings are errors, -fsanitize=${sanitize})"
else
  echo "==> tier-1: configure (warnings are errors)"
fi
cmake -B "${build_dir}" -S "${repo_root}" -DP2PS_WERROR=ON \
    -DP2PS_SANITIZE="${sanitize}"

echo "==> tier-1: build"
cmake --build "${build_dir}" -j "$(nproc)"

echo "==> tier-1: ctest"
# (cd …) rather than ctest --test-dir: the latter needs CTest >= 3.17 and
# the project supports CMake 3.16.
(cd "${build_dir}" && ctest --output-on-failure -j "$(nproc)")

runner="${build_dir}/src/p2ps_run"
echo "==> scenario smoke pass (seed=${seed}, scale=${scale})"
"${runner}" --list

smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT

# Every registered scenario must run cleanly and be byte-deterministic.
scenarios="$("${runner}" --list | awk '/^[a-z]/ {print $1}')"
count=0
for scenario in ${scenarios}; do
  echo "--- ${scenario}"
  "${runner}" "${scenario}" --seed "${seed}" --scale "${scale}" --compact \
      > "${smoke_dir}/${scenario}.1.json"
  "${runner}" "${scenario}" --seed "${seed}" --scale "${scale}" --compact \
      > "${smoke_dir}/${scenario}.2.json"
  cmp "${smoke_dir}/${scenario}.1.json" "${smoke_dir}/${scenario}.2.json" || {
    echo "FAIL: ${scenario} is not deterministic for seed ${seed}" >&2
    exit 1
  }
  count=$((count + 1))
done

# Guard against the list-scrape silently matching nothing: the registry is
# contractually >= 10 scenarios (see ISSUE/README acceptance).
if [ "${count}" -lt 10 ]; then
  echo "FAIL: smoke pass covered only ${count} scenarios (expected >= 10);" \
       "--list output format may have drifted from the awk scrape" >&2
  exit 1
fi

# Perf smoke: the bench path (perf scenarios + --event-list) must not rot.
# A small-scale fixed-seed perf run has to be byte-identical across both
# event-list backends — the same check bench.sh performs before it trusts
# a timing at full scale. The heap-backend output was already produced
# (and determinism-checked) by the smoke loop above, so only the calendar
# run is new work.
echo "==> perf smoke: event-list backend parity (seed=${seed}, scale=${scale})"
for perf_scenario in perf_steady perf_flash_crowd; do
  "${runner}" "${perf_scenario}" --seed "${seed}" --scale "${scale}" --compact \
      --event-list calendar > "${smoke_dir}/${perf_scenario}.calendar.json"
  cmp "${smoke_dir}/${perf_scenario}.1.json" \
      "${smoke_dir}/${perf_scenario}.calendar.json" || {
    echo "FAIL: ${perf_scenario} differs between event-list backends" >&2
    exit 1
  }
  grep -q '"events_executed":[1-9]' "${smoke_dir}/${perf_scenario}.1.json" || {
    echo "FAIL: ${perf_scenario} executed no events" >&2
    exit 1
  }
done

# Golden-digest gate: every benchmark/golden.json workload, run the way
# benchmark/run.py times it (seed 2002, full size; the sharded pair at
# --scale 4 on 8 shards, on one and on two threads), must reproduce its
# stored sha256. Parity makes those digests equal to the --shards 1
# reference, so a payload change that only shows on several shards or
# threads fails here too, instead of only printing payload_changed in a
# bench report.
golden_file="${repo_root}/benchmark/golden.json"
golden_seed="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["seed"])' \
    "${golden_file}")"
echo "==> golden smoke: benchmark/golden.json digests (seed=${golden_seed})"
golden_count=0
while read -r workload expected; do
  case "${workload}" in
    steady) golden_args=(perf_steady) ;;
    flash_crowd) golden_args=(perf_flash_crowd) ;;
    messages) golden_args=(perf_messages) ;;
    sharded_250k)
      golden_args=(perf_sharded_scale --shards 8 --scale 4) ;;
    sharded_250k_2t)
      golden_args=(perf_sharded_scale --shards 8 --shard-threads 2 --scale 4) ;;
    *)
      echo "FAIL: golden.json names unknown workload '${workload}'" >&2
      exit 1 ;;
  esac
  got="$("${runner}" "${golden_args[@]}" --seed "${golden_seed}" --compact \
      | sha256sum | cut -d' ' -f1)"
  if [ "${got}" != "${expected}" ]; then
    echo "FAIL: ${workload} payload digest ${got} differs from the golden" \
         "${expected} (benchmark/golden.json)" >&2
    exit 1
  fi
  echo "    ${workload} ${got:0:12} ok"
  golden_count=$((golden_count + 1))
done < <(python3 -c 'import json,sys
for name, digest in json.load(open(sys.argv[1]))["digests"].items():
    print(name, digest)' "${golden_file}")
if [ "${golden_count}" -lt 5 ]; then
  echo "FAIL: golden smoke checked only ${golden_count} workloads" >&2
  exit 1
fi

# Message smoke: the batched mailbox transport's parity contract on the
# message-level paper-scale scenario. msg_fig5_scale must be byte-identical
# across both event-list backends (docs/message_batching.md). The heap
# output was already produced by the smoke loop above.
echo "==> message smoke: msg_fig5_scale backend parity (seed=${seed}, scale=${scale})"
"${runner}" msg_fig5_scale --seed "${seed}" --scale "${scale}" --compact \
    --event-list calendar > "${smoke_dir}/msg_fig5_scale.calendar.json"
cmp "${smoke_dir}/msg_fig5_scale.1.json" \
    "${smoke_dir}/msg_fig5_scale.calendar.json" || {
  echo "FAIL: msg_fig5_scale differs between event-list backends" >&2
  exit 1
}

# Sweep smoke: a small multi-threaded parameter study (4 points, 2 threads)
# must produce byte-identical reports run-to-run and across thread counts —
# the determinism contract of `p2ps_run --sweep`.
echo "==> sweep smoke: 4 points, --threads 2 vs --threads 1 (seed axis 1,2)"
"${runner}" --sweep flash_crowd,churn_resilience --seeds 1,2 \
    --scales "${scale}" --threads 2 --compact > "${smoke_dir}/sweep.2t.json"
"${runner}" --sweep flash_crowd,churn_resilience --seeds 1,2 \
    --scales "${scale}" --threads 1 --compact > "${smoke_dir}/sweep.1t.json"
cmp "${smoke_dir}/sweep.2t.json" "${smoke_dir}/sweep.1t.json" || {
  echo "FAIL: sweep report differs between --threads 2 and --threads 1" >&2
  exit 1
}
grep -q '"points":4' "${smoke_dir}/sweep.2t.json" || {
  echo "FAIL: sweep smoke did not cover 4 points" >&2
  exit 1
}

# Latency-axis smoke: the sweep's message-level axis must expand the cross
# product deterministically and reject junk tokens with a CLI error (the
# same fail-fast validation the integer axes got in PR 3).
echo "==> latency-axis smoke: msg_flash_crowd x {fixed,twoclass}"
"${runner}" --sweep msg_flash_crowd --latencies fixed,twoclass \
    --scales "${scale}" --threads 2 --compact > "${smoke_dir}/latency.2t.json"
"${runner}" --sweep msg_flash_crowd --latencies fixed,twoclass \
    --scales "${scale}" --threads 1 --compact > "${smoke_dir}/latency.1t.json"
cmp "${smoke_dir}/latency.2t.json" "${smoke_dir}/latency.1t.json" || {
  echo "FAIL: latency sweep differs between --threads 2 and --threads 1" >&2
  exit 1
}
grep -q '"points":2' "${smoke_dir}/latency.2t.json" || {
  echo "FAIL: latency sweep did not cover 2 points" >&2
  exit 1
}
grep -q '"latency":"twoclass"' "${smoke_dir}/latency.2t.json" || {
  echo "FAIL: latency sweep report does not echo the latency axis" >&2
  exit 1
}
if "${runner}" --sweep msg_flash_crowd --latencies warp --scales "${scale}" \
    --compact > /dev/null 2>&1; then
  echo "FAIL: --latencies accepted an invalid model token" >&2
  exit 1
fi

# Timer smoke: the TimerService strategy is pure event-core mechanics, so
# one session-level and one message-level scenario must emit identical
# payloads under all three --timers strategies once the mechanics counters
# are normalized away. The normalizer is the binary's own --strip-mechanics
# filter (scenario::strip_event_mechanics over the shared
# obs::mechanics_schema table), so CI and the parity tests zero exactly the
# same key set by construction — a new mechanics counter added to the
# schema is stripped here automatically (docs/observability.md).
echo "==> timer smoke: fig5_admission_rate + msg_flash_crowd x {wheel,lazy,events}"
strip_mechanics() {
  "${runner}" --strip-mechanics
}
for timer_scenario in fig5_admission_rate msg_flash_crowd; do
  for strategy in wheel lazy events; do
    "${runner}" "${timer_scenario}" --seed "${seed}" --scale "${scale}" \
        --compact --timers "${strategy}" | strip_mechanics \
        > "${smoke_dir}/${timer_scenario}.${strategy}.json"
  done
  for strategy in lazy events; do
    cmp "${smoke_dir}/${timer_scenario}.wheel.json" \
        "${smoke_dir}/${timer_scenario}.${strategy}.json" || {
      echo "FAIL: ${timer_scenario} differs between --timers wheel and" \
           "--timers ${strategy}" >&2
      exit 1
    }
  done
done
if "${runner}" fig5_admission_rate --timers sundial --scale "${scale}" \
    --compact > /dev/null 2>&1; then
  echo "FAIL: --timers accepted an invalid strategy token" >&2
  exit 1
fi

# Loss-axis smoke: the sweep's --losses axis must expand deterministically,
# change the run (not just the echo), and reject junk or out-of-range
# tokens with a CLI error, like the other axes.
echo "==> loss-axis smoke: msg_flash_crowd x {0,0.5}"
"${runner}" --sweep msg_flash_crowd --losses 0,0.5 --scales "${scale}" \
    --threads 2 --compact > "${smoke_dir}/loss.2t.json"
"${runner}" --sweep msg_flash_crowd --losses 0,0.5 --scales "${scale}" \
    --threads 1 --compact > "${smoke_dir}/loss.1t.json"
cmp "${smoke_dir}/loss.2t.json" "${smoke_dir}/loss.1t.json" || {
  echo "FAIL: loss sweep differs between --threads 2 and --threads 1" >&2
  exit 1
}
grep -q '"loss":0.5' "${smoke_dir}/loss.2t.json" || {
  echo "FAIL: loss sweep report does not echo the loss axis" >&2
  exit 1
}
grep -q '"drop_probability":0.5' "${smoke_dir}/loss.2t.json" || {
  echo "FAIL: loss axis did not reach the transport config" >&2
  exit 1
}
for bad_loss in warp 1.5 0.5x; do
  if "${runner}" --sweep msg_flash_crowd --losses "${bad_loss}" \
      --scales "${scale}" --compact > /dev/null 2>&1; then
    echo "FAIL: --losses accepted invalid token '${bad_loss}'" >&2
    exit 1
  fi
done

# Policy smoke: the supplier-selection strategy layer. --policy/--policies
# must reject junk tokens with a CLI error, a non-default policy must run
# cleanly, and a --policies sweep must keep the thread-count byte-parity
# contract (randomized policies draw from their own named substream, so the
# pool cannot perturb them).
echo "==> policy smoke: --policy validation + {paper-dac,first-fit} sweep"
if "${runner}" flash_crowd --policy bogus --scale "${scale}" \
    --compact > /dev/null 2>&1; then
  echo "FAIL: --policy accepted an unknown policy token" >&2
  exit 1
fi
if "${runner}" --sweep flash_crowd --policies bogus --scales "${scale}" \
    --compact > /dev/null 2>&1; then
  echo "FAIL: --policies accepted an unknown policy token" >&2
  exit 1
fi
"${runner}" flash_crowd --seed "${seed}" --scale "${scale}" --compact \
    --policy reciprocity > "${smoke_dir}/policy.reciprocity.json"
grep -q '"scenario":"flash_crowd"' "${smoke_dir}/policy.reciprocity.json" || {
  echo "FAIL: --policy reciprocity run produced no envelope" >&2
  exit 1
}
"${runner}" --sweep flash_crowd --policies paper-dac,first-fit \
    --scales "${scale}" --threads 2 --compact > "${smoke_dir}/policy.2t.json"
"${runner}" --sweep flash_crowd --policies paper-dac,first-fit \
    --scales "${scale}" --threads 1 --compact > "${smoke_dir}/policy.1t.json"
cmp "${smoke_dir}/policy.2t.json" "${smoke_dir}/policy.1t.json" || {
  echo "FAIL: policy sweep differs between --threads 2 and --threads 1" >&2
  exit 1
}
grep -q '"policy":"first-fit"' "${smoke_dir}/policy.2t.json" || {
  echo "FAIL: policy sweep report does not echo the policy axis" >&2
  exit 1
}

# Shard smoke: the conservative-parallel engine's headline contract — a
# sharded scenario's payload is byte-identical for EVERY --shards and
# --shard-threads value (docs/sharding.md), and junk --shards tokens are
# rejected with the CLI usage error (exit 2) before any simulation runs.
# The default-shards output (.1.json, 4 shards) was already produced and
# determinism-checked by the smoke loop above.
echo "==> shard smoke: msg_fig5_sharded x {--shards 1, --shards 7 + threads}"
for bad_shards in banana 0 -3 2.5; do
  status=0
  "${runner}" msg_fig5_sharded --shards "${bad_shards}" --scale "${scale}" \
      --compact > /dev/null 2>&1 || status=$?
  if [ "${status}" -ne 2 ]; then
    echo "FAIL: --shards '${bad_shards}' exited ${status} (expected usage" \
         "error 2)" >&2
    exit 1
  fi
done
"${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
    --shards 1 > "${smoke_dir}/msg_fig5_sharded.s1.json"
cmp "${smoke_dir}/msg_fig5_sharded.1.json" \
    "${smoke_dir}/msg_fig5_sharded.s1.json" || {
  echo "FAIL: msg_fig5_sharded differs between --shards 1 and the default" \
       "4 shards" >&2
  exit 1
}
"${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
    --shards 7 --shard-threads 2 > "${smoke_dir}/msg_fig5_sharded.s7.json"
cmp "${smoke_dir}/msg_fig5_sharded.1.json" \
    "${smoke_dir}/msg_fig5_sharded.s7.json" || {
  echo "FAIL: msg_fig5_sharded differs between --shards 7 --shard-threads 2" \
       "and the default 4 shards" >&2
  exit 1
}
grep -q '"mechanics"' "${smoke_dir}/msg_fig5_sharded.1.json" && {
  echo "FAIL: sharded payload leaked mechanics without --mechanics" >&2
  exit 1
}

# Fusion smoke: adaptive-lookahead window fusion is byte-invisible
# (docs/sharding.md, "Adaptive lookahead") — the unfused reference mode
# --fusion 1 must match the fused default byte-for-byte, a fused
# --mechanics run must actually fuse (windows_fused > 0), and junk
# --fusion tokens are rejected with the usage error before any run.
echo "==> fusion smoke: msg_fig5_sharded --fusion 1 vs fused default"
for bad_fusion in banana 0 -3 2.5; do
  status=0
  "${runner}" msg_fig5_sharded --fusion "${bad_fusion}" --scale "${scale}" \
      --compact > /dev/null 2>&1 || status=$?
  if [ "${status}" -ne 2 ]; then
    echo "FAIL: --fusion '${bad_fusion}' exited ${status} (expected usage" \
         "error 2)" >&2
    exit 1
  fi
done
"${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
    --fusion 1 > "${smoke_dir}/msg_fig5_sharded.f1.json"
cmp "${smoke_dir}/msg_fig5_sharded.1.json" \
    "${smoke_dir}/msg_fig5_sharded.f1.json" || {
  echo "FAIL: msg_fig5_sharded differs between --fusion 1 and the fused" \
       "default" >&2
  exit 1
}
"${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
    --mechanics > "${smoke_dir}/msg_fig5_sharded.fused_mechanics.json"
grep -q '"windows_fused":[1-9]' \
    "${smoke_dir}/msg_fig5_sharded.fused_mechanics.json" || {
  echo "FAIL: the fused default reported no fused windows (windows_fused)" >&2
  exit 1
}

# Thread-parity smoke: the window pool and the destination-side exchange
# (docs/sharding.md, "Threading") change only wall-clock. At 8 shards the
# payload must be byte-identical for --shard-threads 1, 2 and 4 (and equal
# to the one-shard run), and the --mechanics counters that every thread
# touches — cross-shard messages, the delivery-group pool, and each shard's
# executed events (one per delivery-lane or source-lane fire) and peak
# pending events (armed source lanes included) — must agree exactly: a
# racy counter, or a lane fire or arm counted on the wrong thread, drifts
# here first.
echo "==> thread-parity smoke: perf_sharded_scale --shards 8 x --shard-threads {1,2,4}"
parity_scale=$(( scale * 4 ))
"${runner}" perf_sharded_scale --seed "${seed}" --scale "${parity_scale}" \
    --compact --shards 1 > "${smoke_dir}/parity.s1.json"
for threads in 1 2 4; do
  "${runner}" perf_sharded_scale --seed "${seed}" --scale "${parity_scale}" \
      --compact --shards 8 --shard-threads "${threads}" \
      > "${smoke_dir}/parity.t${threads}.json"
  cmp "${smoke_dir}/parity.s1.json" "${smoke_dir}/parity.t${threads}.json" || {
    echo "FAIL: perf_sharded_scale --shards 8 --shard-threads ${threads}" \
         "differs from --shards 1" >&2
    exit 1
  }
  "${runner}" perf_sharded_scale --seed "${seed}" --scale "${parity_scale}" \
      --compact --shards 8 --shard-threads "${threads}" --mechanics \
      | grep -o '"\(cross_shard_messages\|pool_allocations\|pool_reuses\|events_executed\|peak_event_list\)":[0-9]*' \
      > "${smoke_dir}/parity.t${threads}.counters"
  # 3 run-wide counters plus events_executed and peak_event_list for each
  # of the 8 shards.
  if [ "$(wc -l < "${smoke_dir}/parity.t${threads}.counters")" -ne 19 ]; then
    echo "FAIL: --mechanics lacks the cross-shard/pool/per-shard event" \
         "counters" >&2
    exit 1
  fi
  cmp "${smoke_dir}/parity.t1.counters" \
      "${smoke_dir}/parity.t${threads}.counters" || {
    echo "FAIL: mechanics counters differ between --shard-threads 1 and" \
         "${threads}" >&2
    exit 1
  }
done

# Memory smoke: the compact-peer-state budget (docs/memory.md). A 1/10th
# perf_sharded_10m run (1,002,000 peers — the PR-7 headline population)
# must stay under a peak RSS only the hot/cold split can meet: the AoS
# LocalPeer engine measured 165 MB here (BENCH_7), the compact layout
# ~48 MB, so a 128 MB ceiling fails any regression back to fat per-peer
# records long before the 10M bench would. Skipped under sanitizers:
# shadow memory and redzones inflate RSS by design.
if [ -z "${sanitize}" ]; then
  rss_budget_bytes=$(( 128 * 1024 * 1024 ))
  echo "==> memory smoke: perf_sharded_10m --scale 10 peak RSS <= ${rss_budget_bytes}"
  "${runner}" perf_sharded_10m --seed "${seed}" --scale 10 --compact \
      --mechanics > "${smoke_dir}/memory.json"
  rss="$(grep -o '"peak_rss_bytes":[0-9]*' "${smoke_dir}/memory.json" \
      | head -1 | cut -d: -f2)"
  if [ -z "${rss}" ] || [ "${rss}" -eq 0 ]; then
    echo "FAIL: memory smoke reported no peak_rss_bytes" >&2
    exit 1
  fi
  if [ "${rss}" -gt "${rss_budget_bytes}" ]; then
    echo "FAIL: perf_sharded_10m --scale 10 peak RSS ${rss} exceeds the" \
         "${rss_budget_bytes}-byte budget; the compact peer-state layout" \
         "has regressed (docs/memory.md)" >&2
    exit 1
  fi
  echo "    peak RSS ${rss} bytes (budget ${rss_budget_bytes})"

  # The session engine's one-cache-line Peer and 5-byte directory slots
  # (docs/memory.md, "Session engine"): full-size perf_steady (150,100
  # peers) measured 34.9 MB with the two-line record, ~25.2 MB with the
  # 64-byte one, 22.9 MiB with 16-byte directory entries and ~20.5 MiB
  # with 5-byte ones, so a 22 MiB ceiling fails a regression to either
  # the wider directory or a wider peer.
  rss_budget_bytes=$(( 22 * 1024 * 1024 ))
  echo "==> memory smoke: perf_steady peak RSS <= ${rss_budget_bytes}"
  "${runner}" perf_steady --seed "${seed}" --compact --mechanics \
      > "${smoke_dir}/memory_steady.json"
  rss="$(grep -o '"peak_rss_bytes":[0-9]*' "${smoke_dir}/memory_steady.json" \
      | head -1 | cut -d: -f2)"
  if [ -z "${rss}" ] || [ "${rss}" -eq 0 ]; then
    echo "FAIL: perf_steady memory smoke reported no peak_rss_bytes" >&2
    exit 1
  fi
  if [ "${rss}" -gt "${rss_budget_bytes}" ]; then
    echo "FAIL: perf_steady peak RSS ${rss} exceeds the" \
         "${rss_budget_bytes}-byte budget; the session engine's Peer record" \
         "or the directory's 5-byte slots have grown (docs/memory.md)" >&2
    exit 1
  fi
  echo "    peak RSS ${rss} bytes (budget ${rss_budget_bytes})"

  # The message engine's pooled delivery groups and dense endpoints
  # (docs/memory.md, "Message engine"): full-size perf_messages (50,100
  # peers) measured ~26 MiB with a heap-grown pending-group vector and a
  # heap endpoint per peer and ~20 MiB pooled, so a 24 MiB ceiling fails
  # a regression back to per-peer heap records.
  rss_budget_bytes=$(( 24 * 1024 * 1024 ))
  echo "==> memory smoke: perf_messages peak RSS <= ${rss_budget_bytes}"
  "${runner}" perf_messages --seed "${seed}" --compact --mechanics \
      > "${smoke_dir}/memory_messages.json"
  rss="$(grep -o '"peak_rss_bytes":[0-9]*' "${smoke_dir}/memory_messages.json" \
      | head -1 | cut -d: -f2)"
  if [ -z "${rss}" ] || [ "${rss}" -eq 0 ]; then
    echo "FAIL: perf_messages memory smoke reported no peak_rss_bytes" >&2
    exit 1
  fi
  if [ "${rss}" -gt "${rss_budget_bytes}" ]; then
    echo "FAIL: perf_messages peak RSS ${rss} exceeds the" \
         "${rss_budget_bytes}-byte budget; the message engine's pooled" \
         "per-peer state has regressed (docs/memory.md)" >&2
    exit 1
  fi
  echo "    peak RSS ${rss} bytes (budget ${rss_budget_bytes})"
else
  echo "==> memory smoke: skipped under -fsanitize=${sanitize}"
fi

# Telemetry smoke: the runtime observability layer (docs/observability.md).
# A --telemetry run must (a) emit a schema-valid JSONL stream (validated by
# scripts/check_telemetry.py), (b) leave the scenario payload byte-identical
# to an uninstrumented run — telemetry is out-of-band by contract — and
# (c) reject junk flag spellings with the usage error (exit 2) like every
# other axis. The uninstrumented output (.1.json) was already produced and
# determinism-checked by the smoke loop above.
echo "==> telemetry smoke: msg_fig5_sharded --telemetry + schema check"
# 50 ms wall interval: a ~1 s smoke run yields a dozen-odd snapshots
# without the every-barrier flood interval 0 would produce.
"${runner}" msg_fig5_sharded --seed "${seed}" --scale "${scale}" --compact \
    --telemetry "${smoke_dir}/telemetry.jsonl" --telemetry-interval 50 \
    > "${smoke_dir}/msg_fig5_sharded.telemetry.json" \
    2> "${smoke_dir}/telemetry.stderr"
cmp "${smoke_dir}/msg_fig5_sharded.1.json" \
    "${smoke_dir}/msg_fig5_sharded.telemetry.json" || {
  echo "FAIL: msg_fig5_sharded payload differs with --telemetry attached" >&2
  exit 1
}
python3 "${repo_root}/scripts/check_telemetry.py" \
    "${smoke_dir}/telemetry.jsonl" --min-snapshots 1 || {
  echo "FAIL: telemetry stream failed the schema check" >&2
  exit 1
}
grep -q '\[telemetry\] snapshot' "${smoke_dir}/telemetry.stderr" || {
  echo "FAIL: --telemetry emitted no heartbeat lines" >&2
  exit 1
}
status=0
"${runner}" msg_fig5_sharded --scale "${scale}" --compact \
    --telemetri "${smoke_dir}/typo.jsonl" > /dev/null 2>&1 || status=$?
if [ "${status}" -ne 2 ]; then
  echo "FAIL: misspelled --telemetri exited ${status} (expected usage" \
       "error 2)" >&2
  exit 1
fi
# Batched delivery is the only delivery: the retired --transport flag is
# an unknown flag like any other.
status=0
"${runner}" msg_fig5_scale --scale "${scale}" --compact \
    --transport batched > /dev/null 2>&1 || status=$?
if [ "${status}" -ne 2 ]; then
  echo "FAIL: retired --transport exited ${status} (expected usage error 2)" >&2
  exit 1
fi
status=0
"${runner}" msg_fig5_sharded --scale "${scale}" --compact \
    --telemetry-interval 100 > /dev/null 2>&1 || status=$?
if [ "${status}" -ne 2 ]; then
  echo "FAIL: --telemetry-interval without --telemetry exited ${status}" \
       "(expected usage error 2)" >&2
  exit 1
fi
status=0
"${runner}" msg_fig5_sharded --scale "${scale}" --compact \
    --telemetry "${smoke_dir}/wd.jsonl" --watchdog loud > /dev/null 2>&1 \
    || status=$?
if [ "${status}" -ne 2 ]; then
  echo "FAIL: --watchdog loud exited ${status} (expected usage error 2)" >&2
  exit 1
fi

# Benchmark smoke: the harness's own checks against a fake runner, then
# every workload at a tenth of its size, one rep. run.py builds its own
# Release tree (.bench_build/) and fails on any failed payload identity,
# parity or determinism check. Skipped under sanitizers: that tree is
# never instrumented, so a sanitized pass would only repeat this one.
if [ -z "${sanitize}" ]; then
  echo "==> benchmark smoke: benchmark/run.py --self-test and --smoke"
  (cd "${repo_root}" && python3 benchmark/run.py --self-test)
  (cd "${repo_root}" && python3 benchmark/run.py --smoke > /dev/null)
else
  echo "==> benchmark smoke: skipped under -fsanitize=${sanitize}"
fi

# Benchmark output contract: one short --workload run per workload, traced
# (plus an untraced steady run), whose last stdout line must be strict JSON
# with correct=true and exactly BENCHMARK.json's metric rows, each finite.
# A deleted mechanism whose per_layer row is still listed fails here.
# Skipped under sanitizers like the benchmark smoke.
if [ -z "${sanitize}" ]; then
  echo "==> benchmark output contract: scripts/check_bench_output.py"
  python3 "${repo_root}/scripts/check_bench_output.py" --self-test
  python3 "${repo_root}/scripts/check_bench_output.py" --seconds 2
else
  echo "==> benchmark output contract: skipped under -fsanitize=${sanitize}"
fi

# Build-flavour stage: payloads must not depend on the host ISA or on the
# compiler fusing floating-point multiply-adds. p2ps_run alone is rebuilt
# with -march=native -ffp-contract=fast in <build-dir>-flavour, and every
# registered scenario must emit the tier-1 build's bytes once the
# event-core mechanics are zeroed (seed 2002, --scale 10; perf_sharded_10m
# at --scale 100). Skipped under sanitizers like the memory smokes.
if [ -z "${sanitize}" ]; then
  flavour_dir="${build_dir}-flavour"
  flavour_flags="-march=native -ffp-contract=fast"
  echo "==> build flavour: every scenario under ${flavour_flags}"
  cmake -B "${flavour_dir}" -S "${repo_root}" -DP2PS_WERROR=ON \
      -DCMAKE_CXX_FLAGS="${flavour_flags}" -DP2PS_BUILD_TESTS=OFF \
      -DP2PS_BUILD_EXAMPLES=OFF > /dev/null
  cmake --build "${flavour_dir}" -j "$(nproc)" --target p2ps_run
  flavour_runner="${flavour_dir}/src/p2ps_run"
  for scenario in ${scenarios}; do
    flavour_scale=10
    if [ "${scenario}" = perf_sharded_10m ]; then flavour_scale=100; fi
    "${runner}" "${scenario}" --seed 2002 --scale "${flavour_scale}" \
        --compact | strip_mechanics > "${smoke_dir}/${scenario}.tier1.json"
    "${flavour_runner}" "${scenario}" --seed 2002 --scale "${flavour_scale}" \
        --compact | strip_mechanics > "${smoke_dir}/${scenario}.flavour.json"
    cmp "${smoke_dir}/${scenario}.tier1.json" \
        "${smoke_dir}/${scenario}.flavour.json" || {
      echo "FAIL: ${scenario} differs under ${flavour_flags}" >&2
      exit 1
    }
  done
else
  echo "==> build flavour: skipped under -fsanitize=${sanitize}"
fi

# AddressSanitizer pass: the message path's storage (the mailbox router's
# peer and group tables, the event list's heap, the FIFO rings under the
# engines' queues) must be free of heap-use-after-free and overflows. A
# handler that attaches or sends while its own mailbox entry is running
# is the classic relocation hazard, and ASan reports exactly that. A
# dedicated build tree, because sanitizer flags are cached; only these
# suites are built and run. Skipped when this whole run is already
# sanitized.
if [ -z "${sanitize}" ]; then
  asan_dir="${build_dir}-asan"
  asan_suites="mailbox_test net_test sim_test async_system_test fifo_ring_test"
  echo "==> asan: ${asan_suites} under -fsanitize=address"
  cmake -B "${asan_dir}" -S "${repo_root}" -DP2PS_WERROR=ON \
      -DP2PS_SANITIZE=address -DP2PS_BUILD_EXAMPLES=OFF > /dev/null
  # shellcheck disable=SC2086  # the suite list splits into targets
  cmake --build "${asan_dir}" -j "$(nproc)" --target ${asan_suites}
  for suite in ${asan_suites}; do
    ASAN_OPTIONS="halt_on_error=1" "${asan_dir}/tests/${suite}" \
        --gtest_brief=1
  done
else
  echo "==> asan: skipped under -fsanitize=${sanitize}"
fi

# ThreadSanitizer pass: the threaded shard runner (window pool, parity
# outbox rows, per-shard telemetry lanes and profiler cells) must be
# race-free with no suppressions. A dedicated build tree, because
# sanitizer flags are cached; only the suites that drive threads are
# built and run. Skipped when this whole run is already sanitized.
if [ -z "${sanitize}" ]; then
  tsan_dir="${build_dir}-tsan"
  echo "==> tsan: shard, sweep and obs suites under -fsanitize=thread"
  cmake -B "${tsan_dir}" -S "${repo_root}" -DP2PS_WERROR=ON \
      -DP2PS_SANITIZE=thread -DP2PS_BUILD_EXAMPLES=OFF > /dev/null
  cmake --build "${tsan_dir}" -j "$(nproc)" \
      --target shard_test sweep_test obs_test
  for suite in shard_test sweep_test obs_test; do
    TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/${suite}" \
        --gtest_brief=1
  done
else
  echo "==> tsan: skipped under -fsanitize=${sanitize}"
fi

# Production-reach gate, opt-in like the full-size 10M bench: a coverage
# build of p2ps_run and the examples, run the way users run them, must
# leave no src/ function unexecuted unless the allowlist names it.
if [ "${P2PS_CI_REACH:-0}" = 1 ]; then
  "${repo_root}/scripts/reach.sh" "${build_dir}-reach"
fi

echo "==> OK: build, tests, ${count}-scenario smoke pass, perf smoke," \
     "golden smoke, message smoke, sweep smoke, latency-axis smoke, timer smoke," \
     "loss-axis smoke, policy smoke, shard smoke, fusion smoke," \
     "thread-parity smoke, memory smoke, telemetry smoke, benchmark" \
     "smoke, benchmark output contract, build flavour, asan and tsan pass" \
     "all green"
