#!/usr/bin/env bash
# Production reach: which src/ code the shipped surfaces actually execute.
#
# Builds p2ps_run and the examples with gcov instrumentation (Debug,
# --coverage, no test suites) in a build tree of its own, runs every
# registered scenario at seed 2002 and --scale 10 (perf_sharded_10m at
# --scale 100) plus every example at its defaults, then lists each src/
# function that never ran. Tests do not count: a function only a test
# reaches is dead weight in the library.
#
# gcov reports a header-inline or template function once per translation
# unit that emits it, so counts are summed per (file, line) and per
# (file, function start line) across every unit before anything is judged
# never-run.
#
# A never-run function fails the script unless scripts/reach_allowlist.txt
# names it; the allowlist holds flag-gated code (telemetry, watchdog,
# sweep, the calendar event list, the lazy/events timer strategies) and
# error paths. An allowlist entry that matches no never-run function fails
# too, so the list cannot go stale.
#
# Prints line reach over every instrumented src/ line, and again with the
# allowlisted functions' lines left out.
#
# Usage: scripts/reach.sh [build-dir]   (default <repo>/build-reach)
# Takes about two minutes to build and one to run on a 4-vCPU host.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-reach}"
allowlist="${repo_root}/scripts/reach_allowlist.txt"

echo "==> reach: configure (Debug, --coverage) in ${build_dir}"
cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=--coverage -DP2PS_BUILD_TESTS=OFF \
    -DP2PS_BUILD_EXAMPLES=ON -DP2PS_SANITIZE= > /dev/null
echo "==> reach: build"
cmake --build "${build_dir}" -j "$(nproc)" > /dev/null
find "${build_dir}" -name '*.gcda' -delete

runner="${build_dir}/src/p2ps_run"
echo "==> reach: every scenario (seed 2002, --scale 10) and every example"
for scenario in $("${runner}" --list | awk '/^[a-z]/ {print $1}'); do
  scale=10
  if [ "${scenario}" = perf_sharded_10m ]; then scale=100; fi
  "${runner}" "${scenario}" --seed 2002 --scale "${scale}" --compact > /dev/null
done
for source in "${repo_root}"/examples/*.cpp; do
  "${build_dir}/examples/$(basename "${source}" .cpp)" > /dev/null
done

gcov_dir="$(mktemp -d)"
trap 'rm -rf "${gcov_dir}"' EXIT
# Every unit's notes file, not only the ones that ran: an object the
# static library holds but no binary links has no .gcda, and gcov then
# reports its lines as never run instead of leaving them out.
find "${build_dir}/src" -name '*.gcno' > "${gcov_dir}/units"
(cd "${gcov_dir}" && xargs gcov --json-format --stdout < units \
    > reach.jsonl 2> /dev/null)

python3 - "${repo_root}" "${gcov_dir}/reach.jsonl" "${allowlist}" <<'PY'
import json
import os
import sys

repo_root, report, allowlist_path = sys.argv[1:4]
src_root = os.path.join(repo_root, "src") + os.sep

lines = {}      # (file, line) -> execution count summed over every unit
functions = {}  # (file, start_line) -> [count, end_line, demangled name]
with open(report) as handle:
    for document in handle:
        if not document.strip():
            continue
        unit = json.loads(document)
        cwd = unit.get("current_working_directory", "")
        for entry in unit["files"]:
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            # A reused build dir keeps the notes file of a deleted source;
            # the code it describes no longer exists.
            if not path.startswith(src_root) or not os.path.exists(path):
                continue
            rel = os.path.relpath(path, repo_root)
            for line in entry["lines"]:
                key = (rel, line["line_number"])
                lines[key] = lines.get(key, 0) + line["count"]
            for fn in entry["functions"]:
                key = (rel, fn["start_line"])
                slot = functions.setdefault(
                    key, [0, fn["end_line"], fn["demangled_name"]])
                slot[0] += fn["execution_count"]

allow = []
with open(allowlist_path) as handle:
    for raw in handle:
        text = raw.split("#", 1)[0].strip()
        if text:
            path, _, needle = text.partition(" ")
            allow.append([path, needle.strip(), 0])

never, allowed = [], set()
for (rel, start), (count, end, name) in sorted(functions.items()):
    if count > 0:
        continue
    hits = [a for a in allow if a[0] == rel and a[1] in name]
    for a in hits:
        a[2] += 1
    if hits:
        allowed.update((rel, n) for n in range(start, end + 1))
    else:
        never.append(f"{rel}:{start}: {name}")

def reach(keys):
    keys = list(keys)
    run = sum(1 for k in keys if lines[k] > 0)
    return f"{run} of {len(keys)} lines ({100.0 * run / max(len(keys), 1):.1f}%)"

print(f"line reach, all of src/:          {reach(lines)}")
print(f"line reach, allowlist left out:   "
      f"{reach(k for k in lines if k not in allowed)}")
stale = [f"{a[0]} {a[1]}".strip() for a in allow if a[2] == 0]
for entry in stale:
    print(f"stale allowlist entry (matches no never-run function): {entry}")
for entry in never:
    print(f"never run: {entry}")
if never or stale:
    print(f"FAIL: {len(never)} never-run function(s) outside the allowlist, "
          f"{len(stale)} stale allowlist entr(y/ies)", file=sys.stderr)
    sys.exit(1)
print("reach: every never-run src/ function is allowlisted")
PY
