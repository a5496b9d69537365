#!/usr/bin/env python3
"""The p2ps benchmark: p2ps_run workloads, end to end and layer by layer.

  python3 benchmark/run.py [--seed 2002] [--out FILE]
      one full set: every workload, reps round-robin, one traced run and
      one layer-driver pass per workload, a summary table on stdout
  python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
      one run of one workload; the last stdout line is a JSON object with
      the end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1)
  python3 benchmark/run.py --smoke       every workload at a tenth of its size, 1 rep
  python3 benchmark/run.py --self-test   harness checks against a fake runner

Builds a Release tree of benchmark/CMakeLists.txt in .bench_build/ first.
benchmark/README.md documents the workloads, metrics and bounds.
"""
import argparse
import dataclasses
import fcntl
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "p2ps", "src", "p2ps_run")
LAYERS = os.path.join(BUILD, "p2ps_layers")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 90.0
# What the calibration load (p2ps_layers calib) reports on a quiet reference
# host, per field: rep wall and CPU times are reported as measured *
# reference / calib_ms around the rep, setup times as measured * reference
# / alloc_ms around the sample (README.md, "Host normalisation").
HOST_REFERENCE = {"calib_ms": 105.0, "alloc_ms": 14.0}
REPS = 10  # timed reps per workload in a full set


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    args: tuple       # p2ps_run arguments after the binary, except --scale
    seeds: int        # population at --scale 1, as the scenario builds it
    requesters: int
    setup: str        # p2ps_layers setup kind
    divisor: int = 1  # the workload's own --scale
    threads: int = 1

    @property
    def sharded(self):
        return self.setup == "sharded"

    def reference_args(self):
        """The untimed run every timed rep must match byte for byte: the
        same command, or --shards 1 for a sharded workload (parity)."""
        if not self.sharded:
            return self.args
        return (self.args[0], "--shards", "1")

    def host_factor(self, factor):
        """The factor a rep's wall and CPU time are scaled by. The
        calibration load is single-threaded compute. A threaded rep spends
        much of its time waiting on barrier wake-ups, and a busy host slows
        it about half as much, in log terms, as the load: its reps take the
        square root (benchmark/README.md, "Host normalisation")."""
        return factor if self.threads == 1 else factor ** 0.5

    def scale(self, scale):
        """The --scale this workload runs at under the harness's --scale."""
        return self.divisor * scale

    def population(self, scale):
        """(seeds, requesters), as workload::apply_population_divisor
        shrinks them."""
        divisor = self.scale(scale)
        if divisor <= 1:
            return self.seeds, self.requesters
        return max(4, self.seeds // divisor), max(20, self.requesters // divisor)


# perf_sharded_scale runs at --scale 4 (250,500 peers): at 1,002,000 peers a
# rep takes 8 s serial and 17-24 s on two threads, too few reps per run to
# hold a median steady on a shared host (benchmark/README.md, "Sizing").
SHARDED = ("perf_sharded_scale", "--shards", "8")
WORKLOADS = (
    Workload("steady", ("perf_steady",), 100, 150_000, "steady"),
    Workload("flash_crowd", ("perf_flash_crowd",), 50, 100_000, "flash_crowd"),
    Workload("messages", ("perf_messages",), 100, 50_000, "messages"),
    Workload("sharded_250k", SHARDED, 2_000, 1_000_000, "sharded", divisor=4),
    Workload("sharded_250k_2t", SHARDED + ("--shard-threads", "2"), 2_000,
             1_000_000, "sharded", divisor=4, threads=2),
)
BY_NAME = {w.name: w for w in WORKLOADS}


def log(message):
    print(message, file=sys.stderr, flush=True)


def die(message):
    log(f"error: {message}")
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---- build ---------------------------------------------------------------

def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Configures (once) and builds p2ps_run + p2ps_layers in .bench_build/;
    refuses a tree whose build type is not optimised."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"{needed} not found next to benchmark/: run from a p2ps checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(os.cpu_count() or 1, 4))
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "p2ps_run", "p2ps_layers"])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                log(done.stdout[-4000:])
                die("build failed: " + " ".join(step))
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type not in ("Release", "RelWithDebInfo"):
        die(f".bench_build is configured as '{build_type or '<empty>'}'; the "
            "benchmark needs Release or RelWithDebInfo (delete .bench_build)")
    return build_type


# ---- child processes -----------------------------------------------------

@dataclasses.dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    sys_s: float
    rss_mb: float
    timed_out: bool
    out: bytes
    err: str
    # HOST_REFERENCE / the calibration load timed around this child; scales
    # its wall and CPU time to the reference host speed (Workload.host_factor).
    host_factor: float = 1.0

    @property
    def wall_norm_s(self):
        return self.wall_s * self.host_factor

    @property
    def cpu_norm_s(self):
        return self.cpu_s * self.host_factor


def spawn(argv, timeout=CHILD_TIMEOUT_S):
    """Runs argv to completion, one child at a time, under `p2ps_layers exec`
    (exec_child in layers.cpp): wall time from fork to reap, and CPU time
    and peak RSS from the child's own rusage."""
    with tempfile.TemporaryFile(dir=BUILD) as out, \
            tempfile.TemporaryFile(dir=BUILD) as err, \
            tempfile.NamedTemporaryFile(dir=BUILD, suffix=".json") as report:
        killed = threading.Event()
        # Its own process group, so a timeout kills the trampoline and the
        # child together.
        pid = os.posix_spawn(LAYERS, [LAYERS, "exec", report.name, *argv],
                             os.environ, setpgroup=0, file_actions=[
                                 (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                 (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])

        def kill():
            killed.set()
            os.killpg(pid, signal.SIGKILL)

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, _ = os.wait4(pid, 0)
        except BaseException:
            os.killpg(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            watchdog.cancel()
        try:
            usage = json.load(report)
        except ValueError:  # killed before it reported
            usage = {"rc": os.waitstatus_to_exitcode(status), "wall_s": timeout,
                     "user_s": 0.0, "sys_s": 0.0, "maxrss_kb": 0}
        out.seek(0)
        err.seek(0)
        return Child(rc=usage["rc"], wall_s=usage["wall_s"],
                     cpu_s=usage["user_s"] + usage["sys_s"], sys_s=usage["sys_s"],
                     rss_mb=usage["maxrss_kb"] / 1024.0, timed_out=killed.is_set(),
                     out=out.read(), err=err.read().decode(errors="replace"))


def digest(data):
    return hashlib.sha256(data).hexdigest()


def payload_problems(workload, doc, scale):
    """Identities every payload must satisfy (empty list = good)."""
    try:
        results = doc["results"]
        run = results.get("run", results)
        seeds, requesters = workload.population(scale)
        problems = []
        if results["population"] != seeds + requesters:
            problems.append(f"population {results['population']} != "
                            f"{seeds} seeds + {requesters} requesters")
        overall = run.get("overall")
        if overall is not None:
            if overall["first_requests"] != requesters:
                problems.append("overall.first_requests != requesters")
            for key in ("first_requests", "attempts", "admissions", "rejections"):
                if sum(c[key] for c in run["per_class"]) != overall[key]:
                    problems.append(f"per-class {key} do not sum to overall")
        messages = run.get("messages")
        if messages is not None and messages["sent"] < (
                messages["delivered"] + messages.get("dropped", 0)):
            problems.append("messages.sent < delivered + dropped")
        if "events_executed" in results and not results["events_executed"] > 0:
            problems.append("events_executed is not positive")
        return problems
    except (KeyError, TypeError, AttributeError) as e:
        return [f"malformed payload ({e!r})"]


def telemetry_summary(path):
    try:
        with open(path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
    except (OSError, ValueError):
        return {}
    summaries = [line for line in lines if line.get("type") == "summary"]
    return summaries[-1] if summaries else {}


# ---- one workload's runs, with every check --------------------------------

class Bench:
    """Runs children for workloads and keeps, per workload, how many were
    attempted, how many failed a check, and why. The self-test substitutes
    `spawn_fn` and `log_fn`."""

    def __init__(self, spawn_fn=spawn, seed=2002, scale=1, log_fn=log):
        self.spawn = spawn_fn
        self.log = log_fn
        self.seed = seed
        self.scale = scale
        self.attempted = {}
        self.failed = {}
        self.problems = {}
        self.references = {}
        self.calibs = []
        # The calibration load that ran last, while nothing has run since.
        self._fresh_calib = None

    def _spawn(self, argv):
        self._fresh_calib = None
        return self.spawn(argv)

    def calibrate(self):
        child = self.spawn([LAYERS, "calib"])
        try:
            report = json.loads(child.out)
            report = {key: report[key] for key in HOST_REFERENCE}
        except (ValueError, KeyError):
            die(f"the calibration load failed (exit {child.rc})")
        self.calibs.append(report["calib_ms"])
        self._fresh_calib = report
        return report

    def _between_calibs(self, key, run):
        """Runs `run()` between two calibration loads (sharing one with the
        previous call when nothing ran in between). Returns its result and
        the host factor: HOST_REFERENCE[key] / the loads' mean `key`."""
        before = self._fresh_calib or self.calibrate()
        result = run()
        after = self.calibrate()
        return result, HOST_REFERENCE[key] / ((before[key] + after[key]) / 2)

    def _record(self, workload, problems):
        self.attempted[workload.name] = self.attempted.get(workload.name, 0) + 1
        if problems:
            self.failed[workload.name] = self.failed.get(workload.name, 0) + 1
            self.problems.setdefault(workload.name, []).extend(problems)
            self.log(f"FAIL {workload.name}: {'; '.join(problems)}")
        return not problems

    def p2ps_args(self, workload, args):
        out = [RUNNER, *args, "--seed", str(self.seed), "--compact"]
        if workload.scale(self.scale) != 1:
            out += ["--scale", str(workload.scale(self.scale))]
        return out

    def _payload_run(self, workload, args, expect=None, extra=()):
        """One p2ps_run child: exit code, timeout, identities and (when
        `expect` is given) the payload digest are all checked."""
        child = self._spawn(self.p2ps_args(workload, args) + list(extra))
        problems, doc = [], None
        if child.timed_out:
            problems.append("timed out")
        elif child.rc != 0:
            problems.append(f"exit code {child.rc}: {child.err.strip()[-300:]}")
        else:
            try:
                doc = json.loads(child.out)
                problems += payload_problems(workload, doc, self.scale)
            except ValueError:
                problems.append("payload is not JSON")
            if expect is not None and digest(child.out) != expect:
                problems.append("payload differs from the reference run"
                                + (" (shard/thread parity)" if workload.sharded else
                                   " (determinism)"))
        ok = self._record(workload, problems)
        return child, doc, ok

    def reference(self, workload):
        """The untimed reference run (cached: the two sharded workloads
        share their --shards 1 run). Also the warm-up."""
        key = workload.reference_args()
        if key not in self.references:
            child, doc, ok = self._payload_run(workload, key)
            self.references[key] = (digest(child.out) if ok else None, doc)
        return self.references[key]

    def timed_rep(self, workload):
        """One timed rep; None when it did not run to completion."""
        expect, _ = self.reference(workload)
        (child, _, _), factor = self._between_calibs("calib_ms", lambda: self._payload_run(
            workload, workload.args, expect=expect or "no valid reference"))
        child.host_factor = workload.host_factor(factor)
        return child if child.rc == 0 and not child.timed_out else None

    def traced_rep(self, workload, telemetry_path):
        """--mechanics + --telemetry: the per-layer counters and phases."""
        (child, doc, ok), factor = self._between_calibs("calib_ms", lambda: self._payload_run(
            workload, workload.args,
            extra=("--mechanics", "--telemetry", telemetry_path, "--telemetry-interval", "1000")))
        child.host_factor = workload.host_factor(factor)
        if not ok:
            return None
        return child, doc, telemetry_summary(telemetry_path)

    def setup_samples(self, workload, n=SETUP_SAMPLES):
        """Engine construction times, each in a fresh process between
        calibration loads: (host-normalised, raw) lists. The mirrored config
        must build the reference payload's population."""
        _, doc = self.reference(workload)
        population = (doc["results"]["population"] if doc
                      else sum(workload.population(self.scale)))
        samples, raw = [], []
        argv = [LAYERS, "setup", workload.setup, "--seed", str(self.seed),
                "--scale", str(workload.scale(self.scale))]
        for _ in range(n):
            child, factor = self._between_calibs("alloc_ms", lambda: self._spawn(argv))
            problems = []
            try:
                report = json.loads(child.out) if child.rc == 0 else None
            except ValueError:
                report = None
            if report is None:
                problems.append(f"setup driver failed (exit {child.rc})")
            elif report["population"] != population:
                problems.append(f"setup mirror builds {report['population']} "
                                f"peers, the payload {population}")
            else:
                samples.append(report["setup_s"] * factor)
                raw.append(report["setup_s"])
            self._record(workload, problems)
        return samples, raw

    def micro(self, workload, sizes, seconds):
        argv = [LAYERS, "micro", "--seconds", str(seconds)]
        for key, value in sizes.items():
            argv += [f"--{key}", str(value)]
        child = self._spawn(argv)
        try:
            rows = json.loads(child.out) if child.rc == 0 else None
        except ValueError:
            rows = None
        self._record(workload, [] if rows else [f"layer driver failed (exit {child.rc})"])
        return rows or {}


def check_golden(workload, bench, golden):
    """A seed-2002 payload that differs from the stored golden digest is
    reported as payload_changed; it is not a failure (ROADMAP 3(d)
    regenerates some payloads on purpose)."""
    expected = golden.get("digests", {}).get(workload.name)
    if bench.seed != golden.get("seed") or bench.scale != 1 or expected is None:
        return None
    got, _ = bench.reference(workload)
    if got is not None and got != expected:
        log(f"payload_changed: {workload.name} (golden {expected[:12]}, got {got[:12]})")
        return True
    return False


def load_golden():
    try:
        with open(GOLDEN) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


# ---- the per-layer ledger -------------------------------------------------

def micro_sizes(workload, doc, summary, scale):
    """Layer-driver sizes read off the traced run's own counters."""
    results = doc["results"]
    run = results.get("run", results)
    mech = run.get("mechanics", {})
    per_shard = mech.get("per_shard", [])
    sub_windows = mech.get("windows", 0) + mech.get("windows_fused", 0)
    sizes = {
        "pending": max((s["peak_event_list"] for s in per_shard),
                       default=results.get("peak_event_list", 1)),
        "timers": summary.get("metrics", {}).get("timers_armed", 1024) or 1024,
        "suppliers": run["suppliers_at_end"],
        "requesters": workload.population(scale)[1],
    }
    if sub_windows:
        sizes["envelopes"] = max(1, round(run["messages"]["sent"] / sub_windows))
        events = sum(s["events_executed"] for s in per_shard)
        sizes["window-events"] = events / sub_windows
    return sizes


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def ledger(workload, doc, summary, traced, untraced, setup_s, micro, calibs):
    """Every per-layer metric for one workload. Counters of a layer the
    workload bypasses are 0; share.* rows are an outside-in model. Shares
    of the run use raw (unnormalised) times, like the phases they sit with."""
    results = doc["results"]
    untraced_wall = median([c.wall_s for c in untraced])
    run = results.get("run", results)
    mech = run.get("mechanics", {})
    per_shard = mech.get("per_shard", [])
    metrics = summary.get("metrics", {})
    phases = summary.get("phases") or {}
    run_s = max(untraced_wall - setup_s, 1e-9)
    traced_run_s = max(traced.wall_s - setup_s, 1e-9)
    events = (sum(s["events_executed"] for s in per_shard) if per_shard
              else results["events_executed"])
    sub_windows = mech.get("windows", 0) + mech.get("windows_fused", 0)
    overall = run.get("overall")
    attempts = (overall["attempts"] if overall
                else results["admissions"] + results["rejections"])
    admissions = overall["admissions"] if overall else results["admissions"]
    messages = run.get("messages", {})
    timers = results.get("timers", {})
    step_s = phases.get("step_ms", 0.0) / 1e3
    barrier_s = phases.get("barrier_ms", 0.0) / 1e3

    out = dict(micro)
    out.update({
        "sim.events": events,
        "sim.events_per_s": events / run_s,
        "sim.peak_event_list": max((s["peak_event_list"] for s in per_shard),
                                   default=results.get("peak_event_list", 0)),
        "timers.fired": timers.get("timers_fired", metrics.get("timers_fired", 0)),
        "timers.events_scheduled": timers.get(
            "timer_events_scheduled", metrics.get("timer_events_scheduled", 0)),
        "runner.dispatches": mech.get("windows", 0),
        "runner.sub_windows": sub_windows,
        "runner.events_per_sub_window": ratio(events, sub_windows),
        "runner.idle_skips": mech.get("windows_idle_skipped", 0),
        "runner.sys_share": ratio(traced.sys_s, traced.cpu_s),
        "phase.step_share": step_s / traced_run_s,
        "phase.step_max_shard_share":
            max(phases.get("step_ms_per_shard", [0.0])) / 1e3 / traced_run_s,
        "phase.route_drain_share": phases.get("route_drain_ms", 0.0) / 1e3 / traced_run_s,
        "phase.barrier_share": barrier_s / traced_run_s,
        "phase.wait_share": ((traced_run_s - barrier_s - step_s / workload.threads)
                             / traced_run_s if phases else 0.0),
        "phase.imbalance": phases.get("imbalance", 0.0),
        "obs.trace_overhead_pct":
            (traced.wall_norm_s / median([c.wall_norm_s for c in untraced]) - 1.0) * 100.0,
        "obs.watchdog_trips": summary.get("watchdog_trips", 0),
        "host.calib_ms": median(calibs),
        "host.wall_raw_s": untraced_wall,
        "router.messages": messages.get("sent", 0) if per_shard else 0,
        "router.cross_shard_ratio": ratio(mech.get("cross_shard_messages", 0),
                                          messages.get("sent", 0)),
        "router.pool_reuse_ratio": ratio(mech.get("pool_reuses", 0),
                                         mech.get("pool_reuses", 0)
                                         + mech.get("pool_allocations", 0)),
        "mailbox.messages": messages.get("sent", 0) if "drains" in messages else 0,
        "mailbox.messages_per_drain": ratio(messages.get("delivered", 0),
                                            messages.get("drains", 0)),
        "mailbox.max_batch": messages.get("max_batch", 0),
        "engine.attempts": attempts,
        "engine.admit_ratio": ratio(admissions, attempts),
        "engine.directory_flush_ratio": ratio(mech.get("directory_flushes", 0),
                                              sub_windows),
        "engine.bytes_per_peer": mech.get("bytes_per_peer", ratio(
            results.get("peak_rss_bytes", 0), results["population"])),
        "engine.pool_allocations": mech.get("pool_allocations", 0),
    })
    runner_row = f"runner.sub_window_ns.{workload.threads}t"
    paper = "select.paper-dac_ns"
    out.update({
        "share.sim": ratio(events * micro.get("sim.schedule_step_ns.heap", 0.0),
                           run_s * 1e9),
        "share.router": ratio(out["router.messages"]
                              * micro.get("router.send_drain_ns", 0.0), run_s * 1e9),
        "share.runner": ratio(sub_windows * micro.get(runner_row, 0.0), run_s * 1e9),
        "share.select": ratio(attempts * micro.get(paper, 0.0), run_s * 1e9),
        "share.lookup": 0.0 if per_shard else ratio(
            attempts * micro.get("lookup.candidates_ns", 0.0), run_s * 1e9),
    })
    return out


def layer_pass(bench, workload, setup_s, untraced, micro_seconds):
    """One traced run plus one layer-driver pass sized from it; returns the
    ledger and the raw telemetry phases, or (None, None) on failure."""
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        traced = bench.traced_rep(workload, os.path.join(tmp, "telemetry.jsonl"))
    if traced is None:
        return None, None
    child, doc, summary = traced
    micro = bench.micro(workload, micro_sizes(workload, doc, summary, bench.scale),
                        micro_seconds)
    rows = ledger(workload, doc, summary, child, untraced, setup_s, micro, bench.calibs)
    return rows, summary.get("phases")


# ---- one run of one workload: the BENCHMARK.json contract ----------------

def emit(bench, workload, values, definitions):
    metrics = {}
    for definition in definitions:
        name = definition["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": definition["unit"]}
        else:
            log(f"warning: {name} was not measured (its mechanism is gone?)")
    failed = bench.failed.get(workload.name, 0)
    print(json.dumps({"correct": failed == 0,
                      "attempted": bench.attempted.get(workload.name, 0),
                      "failed": failed, "metrics": metrics}))


def contract_run(workload, seed, seconds, trace):
    build()
    spec = load_spec()
    bench = Bench(seed=seed)
    bench.reference(workload)
    check_golden(workload, bench, load_golden())
    setup, _ = bench.setup_samples(workload)
    # Trace runs split the time between untraced reps (the overhead base)
    # and the layer driver.
    window = seconds / 2 if trace else seconds
    reps, spent = [], []
    start = time.perf_counter()
    # At least one rep, and no rep expected to end more than half a rep past
    # the window, so long reps come in a steady count rather than 1 or 2.
    while True:
        rep_start = time.perf_counter()
        child = bench.timed_rep(workload)
        spent.append(time.perf_counter() - rep_start)
        if child is not None:
            reps.append(child)
        if time.perf_counter() - start + median(spent) / 2 > window:
            break
    if not reps or not setup:
        die(f"{workload.name}: no successful run to measure")
    if trace:
        rows, _ = layer_pass(bench, workload, median(setup), reps, seconds / 2)
        if rows is None:
            die(f"{workload.name}: the traced run failed")
        emit(bench, workload, rows, spec["per_layer"])
    else:
        emit(bench, workload, {
            "wall_s": median([c.wall_norm_s for c in reps]),
            "cpu_s": median([c.cpu_norm_s for c in reps]),
            "setup_s": median(setup),
            "peak_rss_mb": median([c.rss_mb for c in reps]),
        }, spec["end_to_end"])


# ---- one full set: every workload, reps round-robin ----------------------

def host_block(build_type):
    def read(path):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip()
                  for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        if read(f"{base}/{index}/type") in ("Unified", "Data"):
            caches["L" + read(f"{base}/{index}/level")] = read(f"{base}/{index}/size")

    def first_line(argv, env=None):
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30)
            return done.stdout.splitlines()[0] if done.returncode == 0 else "unknown"
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return "unknown"

    # The ceiling keeps git from describing a repository above the checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "kernel": platform.release(),
        "compiler": first_line([cache_value("CMAKE_CXX_COMPILER") or "c++", "--version"]),
        "build_type": build_type,
        "git_describe": first_line(["git", "describe", "--always", "--dirty"], git_env),
        "python": platform.python_version(),
    }


def summarize(values, unit):
    q1, q3 = quartiles(values)
    return {"unit": unit, "median": median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def full_set(seed, scale, reps=None, setup_n=SETUP_SAMPLES, micro_seconds=4.0):
    """Returns the report of one full set (see README.md for its schema)."""
    build_type = build()
    spec = load_spec()
    golden = load_golden()
    units = {d["name"]: d["unit"] for d in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bench = Bench(seed=seed, scale=scale)
    host = host_block(build_type)
    host["loadavg_before"] = os.getloadavg()
    for workload in WORKLOADS:
        bench.reference(workload)
    reps = reps or REPS
    children = {w.name: [] for w in WORKLOADS}
    # Round-robin: rep r of every workload before rep r + 1 of any, so a
    # noisy stretch of the shared host hits every workload alike.
    for rep in range(reps):
        log(f"round {rep + 1}")
        for workload in WORKLOADS:
            child = bench.timed_rep(workload)
            if child is not None:
                children[workload.name].append(child)
    report = {"seed": seed, "scale": scale, "host": host, "workloads": {}}
    for workload in WORKLOADS:
        name = workload.name
        setup, setup_raw = bench.setup_samples(workload, n=setup_n)
        reps_done = children[name]
        e2e = {}
        for metric, values in (("wall_s", [c.wall_norm_s for c in reps_done]),
                               ("cpu_s", [c.cpu_norm_s for c in reps_done]),
                               ("setup_s", setup),
                               ("peak_rss_mb", [c.rss_mb for c in reps_done]),
                               ("wall_raw_s", [c.wall_s for c in reps_done]),
                               ("setup_raw_s", setup_raw)):
            if values:
                e2e[metric] = summarize(values, units.get(metric, "s"))
        rows, phases = (None, None)
        if reps_done and setup:
            rows, phases = layer_pass(bench, workload, median(setup), reps_done,
                                      micro_seconds)
        attempted = bench.attempted.get(name, 0)
        failed = bench.failed.get(name, 0)
        report["workloads"][name] = {
            "command": ["p2ps_run", *bench.p2ps_args(workload, workload.args)[1:]],
            "reps": reps,
            "why": why.get(name, ""),
            "end_to_end": e2e,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted if attempted else 1.0,
            "problems": bench.problems.get(name, []),
            "digest": bench.reference(workload)[0],
            "payload_changed": check_golden(workload, bench, golden),
            "per_layer": rows or {},
            "phases_ms": phases,
        }
    host["loadavg_after"] = os.getloadavg()
    host["calib_ms"] = bench.calibs
    return report


def print_table(report):
    print(f"seed {report['seed']}, scale {report['scale']}; "
          f"median [q1, q3] over n timed reps")
    for name, w in report["workloads"].items():
        cells = []
        for metric, cell in w["end_to_end"].items():
            cells.append(f"{metric} {cell['median']:.4g} [{cell['q1']:.4g}, "
                         f"{cell['q3']:.4g}] {cell['unit']} n={cell['n']}")
        cells.append(f"fail_ratio {w['failed']}/{w['attempted']}")
        overhead = w["per_layer"].get("obs.trace_overhead_pct")
        if overhead is not None:
            cells.append(f"trace overhead {overhead:+.1f}%")
        print(f"{name:14} " + "; ".join(cells))
    sharded = report["workloads"].get("sharded_250k", {}).get("per_layer", {})
    if "phase.step_share" in sharded:
        total = sharded["phase.step_share"] + sharded["phase.barrier_share"]
        print(f"sharded_250k traced: (step + barrier) / (wall - setup) = {total:.3f}")


def write_golden(report):
    digests = {name: w["digest"] for name, w in report["workloads"].items()}
    if report["seed"] != 2002 or report["scale"] != 1 or None in digests.values():
        die("golden digests come from a clean full set at --seed 2002, scale 1")
    with open(GOLDEN, "w") as f:
        json.dump({"seed": 2002, "digests": digests}, f, indent=2)
        f.write("\n")


# ---- harness self-test --------------------------------------------------

def fake_payload(workload, **changes):
    """A payload that passes every identity check for `workload`."""
    seeds, requesters = workload.population(1)
    if workload.sharded:
        per_class = [{"first_requests": requesters // 4, "attempts": 10,
                      "admissions": 3, "rejections": 7}] * 4
        overall = {key: sum(c[key] for c in per_class) for key in per_class[0]}
        results = {"population": seeds + requesters,
                   "run": {"suppliers_at_end": 9, "overall": overall,
                           "per_class": per_class,
                           "messages": {"sent": 5, "delivered": 5, "dropped": 0}}}
    else:
        results = {"population": seeds + requesters, "events_executed": 100,
                   "suppliers_at_end": 9, "admissions": 3, "rejections": 7}
    results.update(changes)
    return json.dumps({"scenario": workload.args[0], "results": results}).encode()


def fake_spawn(reference_out, rep_out, rep_rc=0):
    """A runner that answers reference runs (same args or --shards 1) with
    `reference_out` and timed reps with `rep_out` / `rep_rc`."""
    state = {"runs": 0}

    def spawn_fn(argv, timeout=CHILD_TIMEOUT_S):
        if argv[1:2] == ["calib"]:
            return Child(rc=0, wall_s=0.1, cpu_s=0.1, sys_s=0.0, rss_mb=1.0, timed_out=False,
                         out=b'{"calib_ms": 100.0, "alloc_ms": 10.0}', err="")
        state["runs"] += 1
        first = state["runs"] == 1
        out, rc = (reference_out, 0) if first else (rep_out, rep_rc)
        return Child(rc=rc, wall_s=1.0, cpu_s=1.0, sys_s=0.0, rss_mb=10.0,
                     timed_out=False, out=out, err="" if rc == 0 else "boom")
    return spawn_fn


def fail_ratio_after(workload, spawn_fn, reps=3):
    bench = Bench(spawn_fn=spawn_fn, log_fn=lambda message: None)
    bench.reference(workload)
    for _ in range(reps):
        bench.timed_rep(workload)
    return bench.failed.get(workload.name, 0) / bench.attempted[workload.name]


def self_test():
    steady, threaded = BY_NAME["steady"], BY_NAME["sharded_250k_2t"]
    good, good_sharded = fake_payload(steady), fake_payload(threaded)
    cases = [
        ("clean session payloads", steady, fake_spawn(good, good), False),
        ("clean sharded payloads", threaded, fake_spawn(good_sharded, good_sharded), False),
        ("corrupted payload", steady,
         fake_spawn(good, fake_payload(steady, population=1)), True),
        ("payload that is not JSON", steady, fake_spawn(good, b"{truncated"), True),
        ("non-zero exit", steady, fake_spawn(good, good, rep_rc=1), True),
        ("thread-parity mismatch", threaded,
         fake_spawn(good_sharded, fake_payload(threaded, extra=1)), True),
    ]
    failures = 0
    for label, workload, spawn_fn, should_fail in cases:
        ratio_seen = fail_ratio_after(workload, spawn_fn)
        ok = (ratio_seen > 0) == should_fail
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}: fail_ratio {ratio_seen:.2f}")
    for workload in WORKLOADS:
        problems = payload_problems(workload, json.loads(fake_payload(workload)), 1)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} identities accept a good "
              f"{workload.name} payload {problems or ''}")
    return failures == 0


# ---- command line ---------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="one run of one workload (BENCHMARK.json contract)")
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float,
                        help="measurement time of a --workload run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="full set: also write the report here")
    parser.add_argument("--write-golden", action="store_true",
                        help="full set at --seed 2002: store its payload digests")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at --scale 10, 1 rep, short driver")
    parser.add_argument("--self-test", action="store_true",
                        help="check the harness against a fake runner")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(0 if self_test() else 1)
    if args.workload:
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        contract_run(BY_NAME[args.workload], args.seed, seconds, args.trace)
        return
    start = time.perf_counter()
    if args.smoke:
        report = full_set(args.seed, 10, reps=1, setup_n=3, micro_seconds=0.5)
    else:
        report = full_set(args.seed, 1)
    report["elapsed_s"] = time.perf_counter() - start
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print_table(report)
    if args.write_golden:
        write_golden(report)
    failed = sum(w["failed"] for w in report["workloads"].values())
    print(f"{'FAILED' if failed else 'passed'}: {failed} failed runs, "
          f"{report['elapsed_s']:.1f} s")
    if failed or (args.smoke and report["elapsed_s"] >= 60):
        sys.exit(1)


if __name__ == "__main__":
    main()
