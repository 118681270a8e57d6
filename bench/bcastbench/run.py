#!/usr/bin/env python3
"""bcastbench: end-to-end and per-layer benchmark of the broadcast-disk
simulator.

Each workload is one bcastsim configuration (WORKLOADS below). Every run
is a child process, started one at a time and timed from outside with
os.wait4, so its wall time, CPU time (every thread, shard workers
included) and peak RSS are the operating system's numbers, not the
program's. Every run's output is checked: bcastcheck's report invariants,
identical results on every repetition, the seed-42 fingerprints in
fingerprints.json, and in the traced stage profiled == unprofiled, three
shards == one shard, and the replay's request accounting.

  run.py --workload NAME [--seed S] [--seconds T] [--trace 0|1]
      One workload. --trace 0 repeats it for T seconds after one untimed
      warm-up and prints its end-to-end metrics; --trace 1 runs its traced
      stage and prints its per-layer metrics. The last line of output is
      one JSON object with the keys correct, attempted, failed, metrics.
  run.py [--seed S] [--reps N] [--out FILE]
      Every workload: one untimed warm-up each, N timed repetitions
      round-robin across workloads, then each workload's traced stage.
      Prints both tables and writes every value, with git sha, nproc,
      compiler and build type, to FILE.
  run.py --compare A.json B.json
      Compares two --out results per (workload, end-to-end metric)
      against the bounds in BENCHMARK.json; exits 1 on any "worse".
  run.py --selftest
      Checks that a corrupted pinned value and a corrupted 3-shard report
      are both caught.

The simulator is built from the checkout this file sits in, into
.bench_build/ at its root, on first use.
"""

import argparse
import copy
import fcntl
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
BCASTSIM = BUILD / "bcast" / "tools" / "bcastsim"
BCASTCHECK = BUILD / "bcast" / "tools" / "bcastcheck"
LAYERS = BUILD / "bcastbench_layers"
TARGETS = ("bcastsim", "bcastcheck", "bcastbench_layers")

CHILD_TIMEOUT_S = 120
MIN_REPS = 3
SHARDS = 3  # the traced stage's parallel run: nproc - 1 on a 4-core machine
PROFILED = ("--profile_des",)
FINGERPRINT_SEED = 42

# Every workload is closed-loop: each simulated client issues its next
# request only after the previous one completed and its think time passed.
# Each is sized so one run takes 0.5 to 1 s on a 4-core machine (a run
# repeats a dozen times or more within --seconds). The populations stay
# near 250 MB of RSS: the larger a population's memory, the more its times
# drifted between runs (4000 clients, 540 MB: 8-10%; 1500 clients: 2-5%).
# They run the sharded engine on one shard, because how many cores a
# shared machine grants a process changes from minute to minute, which
# moved 3-shard loop times of the same code by up to 2.5x between runs.
# The traced stage adds a 3-shard run for the parallel metrics.
WORKLOADS = {
    "paper_single": (
        ["--requests=5000000"],
        "the paper's own run (Table 4: D5, delta 2, LRU 500, theta 0.95); "
        "work is next-arrival lookups and LRU probes on a tiny event queue"),
    "lossy_hybrid": (
        ["--requests=1500000", "--access_range=5000", "--policy=lix",
         "--loss=0.1", "--burst_len=4", "--corrupt=0.01", "--pull_slots=2",
         "--pull_threshold=100"],
        "one client whose time goes to fault draws, recovery timers, the "
        "pull server and LIX cost-based eviction"),
    "updates_invalidate": (
        ["--mode=updates", "--update_rate=0.05", "--update_theta=0.95",
         "--consistency=invalidate", "--requests=1500000"],
        "server writes beside client reads: invalidations and refetches "
        "use the cache differently"),
    "pop_uncoupled": (
        ["--mode=population", "--clients=1500", "--requests=300",
         "--cache_size=50", "--shards=1", "--force_pop_engine"],
        "a barrier-free population: client-world build, memory and shard "
        "time dominate"),
    "pop_coupled": (
        ["--mode=population", "--clients=1500", "--requests=40",
         "--cache_size=50", "--access_range=5000", "--loss=0.05",
         "--pull_slots=2", "--pull_threshold=100", "--adapt_epoch=4",
         "--shards=1", "--force_pop_engine"],
        "thousands of barrier rounds where the coordinator replays uplink "
        "submits and runs the controller: the serial fraction"),
}

# End-to-end metrics, from one child process each (see README.md): unit,
# and which way is better. A run reports, per metric, the best value its
# repetitions reached: the program does identical work on every
# repetition, so the spread among them is the machine's noise, and the
# best is by far the steadiest estimate of the program's own cost.
E2E = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "loop_s": ("s", "lower"),
    "sim_req_per_s": ("req/s", "higher"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics of the traced stage. BENCHMARK.json declares those
# that every workload has; the rest exist only on some workloads and are
# reported as n/a elsewhere.
LAYER_UNITS = {
    "des.events_per_req": "events/req",
    "des.ns_per_event": "ns",
    "des.kernel_ns_per_event": "ns",
    "des.callback_ns_per_event": "ns",
    "broadcast.build_ms": "ms",
    "broadcast.next_arrival_ns": "ns",
    "broadcast.lookups_per_req": "lookups/req",
    "client.next_page_ns": "ns",
    "cache.lookup_ns": "ns",
    "cache.insert_ns": "ns",
    "cache.hit_ratio": "ratio",
    "cache.evictions_per_req": "evictions/req",
    "fault.receive_ns": "ns",
    "fault.attempts_per_req": "attempts/req",
    "fault.delivery_ratio": "ratio",
    "pull.add_ns": "ns",
    "pull.pop_next_ns": "ns",
    "pull.submits_per_req": "submits/req",
    "pull.uplink_accept_ratio": "ratio",
    "pop.build_us_per_client": "us",
    "pop.rss_kb_per_client": "KB",
    "pop.speedup": "ratio",
    "pop.serial_frac": "ratio",
    "pop.cpu_util": "ratio",
    "pop.rounds": "count",
    "pop.us_per_round": "us",
    "updates.clock_advances_per_req": "advances/req",
    "updates.last_update_ns": "ns",
    "updates.refetch_ratio": "ratio",
    "obs.profile_overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run at all (no sources, build failure)."""


def declaration():
    """BENCHMARK.json, checked against the metrics this file computes."""
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    for m in bench["end_to_end"]:
        assert E2E[m["name"]] == (m["unit"], m["better"]), m
    for m in bench["per_layer"]:
        assert LAYER_UNITS[m["name"]] == m["unit"], m
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    return bench


# --- building -------------------------------------------------------------

def _checked(argv):
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stdout.splitlines()[-30:])
        raise BenchError(f"{' '.join(argv)} failed:\n{tail}")


def build():
    """Configures and builds the three programs the benchmark runs."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no simulator sources under {ROOT}: bcastbench "
                         "builds the repository it sits in")
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            _checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        _checked(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1), "--target", *TARGETS])


# --- child processes ------------------------------------------------------

def spawn(argv, out_path, err_path):
    """Runs argv to completion. Returns (exit code or None on timeout, wall
    seconds from spawn to exit, resource usage of the child)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(CHILD_TIMEOUT_S, kill)
    timer.start()
    try:
        # Wait without reaping, so the timer can never signal a recycled pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    wall = time.perf_counter() - start
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if timed_out.is_set() else proc.returncode), wall, usage


class Run:
    """One child process: its measurements, output and failed checks."""

    def __init__(self, what):
        self.what = what
        self.wall = self.cpu = 0.0
        self.rss_kb = 0
        self.report = None
        self.output = None
        self.errors = []

    def loop_s(self):
        t = self.report["timings"]
        return t["warmup_seconds"] + t["measured_seconds"]

    def requests(self):
        r = self.report["requests"]
        return r["measured"] + r["warmup"]

    def e2e(self):
        loop = self.loop_s()
        return {
            "wall_s": self.wall,
            "setup_s": self.wall - loop,
            "loop_s": loop,
            "sim_req_per_s": self.requests() / loop,
            "cpu_s": self.cpu,
            "peak_rss_mb": self.rss_kb / 1024.0,
        }


class Bench:
    """Runs workloads as child processes and keeps the count of runs
    attempted and failed."""

    def __init__(self, seed, rundir):
        self.seed = seed
        self.rundir = rundir
        self.runs = []

    def _spawn(self, what, argv):
        run = Run(what)
        self.runs.append(run)
        tag = f"{len(self.runs):04d}"
        out = self.rundir / f"{tag}.out"
        err = self.rundir / f"{tag}.err"
        code, run.wall, usage = spawn(argv, out, err)
        run.cpu = usage.ru_utime + usage.ru_stime
        run.rss_kb = usage.ru_maxrss
        if code is None:
            run.errors.append(f"timed out after {CHILD_TIMEOUT_S} s")
        elif code != 0:
            tail = err.read_text(errors="replace").strip().splitlines()[-3:]
            run.errors.append(f"exit code {code}: {' / '.join(tail)}")
        return run, out

    def simulate(self, name, extra=(), shards=None):
        """Runs workload `name` once through bcastsim (on `shards` shards
        when given) and checks its report with bcastcheck."""
        flags = WORKLOADS[name][0]
        if shards is not None:
            flags = [f for f in flags
                     if not f.startswith(("--shards=", "--force_pop_engine"))]
            extra = (f"--shards={shards}", *extra)
        report = self.rundir / f"{len(self.runs) + 1:04d}.json"
        argv = [str(BCASTSIM), *flags, *extra, f"--seed={self.seed}",
                f"--fault_seed={self.seed}", f"--report_out={report}"]
        run, _ = self._spawn(" ".join([name, *extra]), argv)
        if run.errors:
            return run
        try:
            run.report = json.loads(report.read_text())
        except (OSError, ValueError) as e:
            run.errors.append(f"unreadable report: {e}")
            return run
        check = subprocess.run([str(BCASTCHECK), f"--report={report}"],
                               stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
        if check.returncode != 0:
            run.errors.append("bcastcheck: " +
                              " / ".join(check.stdout.splitlines()[-5:]))
        return run

    def replay(self, name, ref):
        """Runs bcastbench_layers on workload `name`; holds an exact replay
        to the reference run's request accounting."""
        depth = 1
        if ref.report is not None:
            depth = max(1, round(ref.report["extra"].get(
                "pull_queue_depth_mean", 1)))
        argv = [str(LAYERS), *WORKLOADS[name][0], f"--seed={self.seed}",
                f"--fault_seed={self.seed}", f"--pull_depth={depth}"]
        run, out = self._spawn(f"{name} replay", argv)
        if run.errors:
            return run
        try:
            run.output = json.loads(out.read_text().strip().splitlines()[-1])
        except (OSError, ValueError, IndexError) as e:
            run.errors.append(f"unreadable replay output: {e}")
            return run
        if run.output["exact"] and ref.report is not None:
            got = run.output["replay"]
            want = ref.report["requests"]
            hit_rate = got["hits"] / got["requests"]
            if got["requests"] != want["measured"]:
                run.errors.append(
                    f"replay made {got['requests']:.0f} measured requests, "
                    f"the run {want['measured']}")
            if abs(hit_rate - want["hit_rate"]) > 0.005:
                run.errors.append(
                    f"replay hit rate {hit_rate:.4f}, the run "
                    f"{want['hit_rate']:.4f}")
        return run

    def attempted(self):
        return len(self.runs)

    def failed(self):
        return sum(1 for r in self.runs if r.errors)


# --- output checks --------------------------------------------------------

def comparable(report, ignore_extra=()):
    """The report without wall-clock fields and without the extras whose
    names start with a prefix in `ignore_extra`."""
    out = {k: v for k, v in report.items()
           if k not in ("timings", "throughput")}
    out["events_dispatched"] = report["throughput"]["events_dispatched"]
    out["extra"] = {k: v for k, v in report["extra"].items()
                    if not k.startswith(tuple(ignore_extra))}
    return out


def difference(a, b, path=""):
    """The first path at which two JSON values differ, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}{key} (present in one only)"
            found = difference(a[key], b[key], f"{path}{key}.")
            if found:
                return found
        return None
    if a != b:
        return f"{path.rstrip('.') or 'report'} ({a!r} vs {b!r})"
    return None


def check_same(run, ref, ignore_extra=()):
    """Fails `run` unless its results equal the reference run's."""
    if run.report is None or ref.report is None:
        return
    found = difference(comparable(run.report, ignore_extra),
                       comparable(ref.report, ignore_extra))
    if found:
        run.errors.append(f"results differ from {ref.what}: {found}")


def dig(report, field):
    for key in field.split("."):
        report = report[key]
    return report


def fingerprint_mismatch(name, report):
    """Where `report` departs from the pinned seed-42 fingerprint of
    workload `name`, or None (also when nothing is pinned for it)."""
    with open(HERE / "fingerprints.json") as f:
        pinned = json.load(f)["workloads"].get(name)
    if pinned is None or report is None:
        return None
    for field, want in pinned.items():
        got = dig(report, field)
        if got != want:
            return f"{field} is {got!r}, pinned {want!r}"
    return None


def check_pinned(bench, run, name):
    if bench.seed != FINGERPRINT_SEED:
        return
    found = fingerprint_mismatch(name, run.report)
    if found:
        run.errors.append(f"seed-{FINGERPRINT_SEED} fingerprint: {found}")


# --- measuring ------------------------------------------------------------

def summary(values, better):
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"best": values[0] if better == "lower" else values[-1],
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values),
            "values": values}


def e2e_summary(runs):
    rows = [r.e2e() for r in runs if r.report is not None]
    if not rows:
        return {}
    return {m: dict(summary([row[m] for row in rows], better), unit=unit)
            for m, (unit, better) in E2E.items()}


def timed_runs(bench, names, reps=None, seconds=None):
    """One untimed warm-up per workload, then repetitions round-robin
    across `names`: `reps` rounds, or as many as fit in `seconds` (at
    least MIN_REPS). Every repetition must reproduce its warm-up's
    results. Returns {name: [timed runs]}."""
    ref = {}
    for name in names:
        ref[name] = bench.simulate(name)
        check_pinned(bench, ref[name], name)
    timed = {name: [] for name in names}
    start = time.perf_counter()
    rounds = 0

    def more():
        if reps is not None:
            return rounds < reps
        return rounds < MIN_REPS or time.perf_counter() - start < seconds

    while more():
        for name in names:
            run = bench.simulate(name)
            check_same(run, ref[name])
            timed[name].append(run)
        rounds += 1
    return timed


def traced_stage(bench, name, seconds=0.0):
    """The traced stage of one workload: cycles of a plain run (R), a
    3-shard run for populations (K) and a --profile_des run (P; updates
    mode has no DES profile) for `seconds`, at least one cycle, then the
    replay (X). Returns {metric: value}; metrics that do not apply to the
    workload are absent."""
    flags = WORKLOADS[name][0]
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        r = bench.simulate(name)
        if cycles:
            check_same(r, cycles[0][0])
        else:
            check_pinned(bench, r, name)
        k = p = None
        if "--mode=population" in flags:
            k = bench.simulate(name, shards=SHARDS)
            check_same(k, r, ignore_extra=("pop_shards",))
        if "--mode=updates" not in flags:
            p = bench.simulate(name, PROFILED)
            check_same(p, r, ignore_extra=("profile_",))
        cycles.append((r, k, p))
    x = bench.replay(name, cycles[0][0])
    return layer_metrics(cycles, x)


def layer_metrics(cycles, x):
    med = statistics.median

    def reported(i):
        return [c[i] for c in cycles
                if c[i] is not None and c[i].report is not None]

    rs, ks, ps = reported(0), reported(1), reported(2)
    m = {}
    if x.output is not None:
        m.update(x.output["metrics"])
    if not rs:
        return m
    ref = rs[0].report
    extra = ref["extra"]
    requests = rs[0].requests()
    measured = ref["requests"]["measured"]
    events = ref["throughput"]["events_dispatched"]
    loop = med([r.loop_s() for r in rs])
    m["des.events_per_req"] = events / requests
    m["des.ns_per_event"] = loop * 1e9 / events
    submits = (extra.get("pull_requests", 0.0) +
               extra.get("pull_re_requests", 0.0))
    m["pull.submits_per_req"] = submits / requests
    m["pop.rss_kb_per_client"] = (med([r.rss_kb for r in rs]) /
                                  extra.get("pop_clients", 1.0))
    generated = ref["metrics"]["counters"].get("updates/generated", 0)
    m["updates.clock_advances_per_req"] = generated / measured
    m["updates.refetch_ratio"] = (extra.get("invalidation_refetches", 0.0) /
                                  measured)
    if submits > 0:
        m["pull.uplink_accept_ratio"] = extra["pull_uplink_accepted"] / submits
    if ps:
        dispatches = ps[0].report["extra"]["profile_total_dispatches"]
        callback_ns = [p.report["extra"]["profile_total_cpu_ns"] for p in ps]
        loop_ns = [p.loop_s() * 1e9 for p in ps]
        m["des.kernel_ns_per_event"] = med(
            [(t - c) / dispatches for t, c in zip(loop_ns, callback_ns)])
        m["des.callback_ns_per_event"] = med(callback_ns) / dispatches
        m["obs.profile_overhead"] = med(loop_ns) / (loop * 1e9)
    if ks:
        speedup = loop / med([k.loop_s() for k in ks])
        m["pop.speedup"] = speedup
        # Karp-Flatt: the serial fraction that explains this speedup.
        m["pop.serial_frac"] = (1 / speedup - 1 / SHARDS) / (1 - 1 / SHARDS)
        m["pop.cpu_util"] = med([k.cpu / (SHARDS * k.wall) for k in ks])
        rounds = max(1.0, extra.get("pull_opportunities", 0.0) +
                     extra.get("adapt_epochs", 0.0))
        m["pop.rounds"] = rounds
        m["pop.us_per_round"] = loop * 1e6 / rounds
    return m


# --- reporting ------------------------------------------------------------

def fmt(value):
    if value is None:
        return "n/a"
    if value == 0 or 1e-3 <= abs(value) < 1e7:
        return f"{value:.6g}"
    return f"{value:.4e}"


def result_line(bench, metrics):
    """The last line of a --workload run."""
    return json.dumps({
        "correct": bench.failed() == 0,
        "attempted": bench.attempted(),
        "failed": bench.failed(),
        "metrics": metrics,
    })


def print_errors(bench):
    for run in bench.runs:
        for error in run.errors:
            print(f"FAILED {run.what}: {error}")


def run_one(args, decl, rundir):
    bench = Bench(args.seed, rundir)
    name = args.workload
    if args.trace:
        layers = traced_stage(bench, name, args.seconds)
        print(f"{name}: per-layer metrics (seed {args.seed})")
        for metric, unit in LAYER_UNITS.items():
            print(f"  {metric:32s} {fmt(layers.get(metric)):>12s} {unit}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in decl["per_layer"] if m["name"] in layers}
    else:
        runs = timed_runs(bench, [name], seconds=args.seconds)[name]
        e2e = e2e_summary(runs)
        print(f"{name}: end-to-end metrics (seed {args.seed}, best of "
              f"{len(runs)} runs)")
        for metric, s in e2e.items():
            print(f"  {metric:14s} {fmt(s['best']):>12s} {s['unit']:6s} "
                  f"median {fmt(s['median'])}  q1 {fmt(s['q1'])}  "
                  f"q3 {fmt(s['q3'])}  min {fmt(s['min'])}  "
                  f"max {fmt(s['max'])}  n {s['n']}")
        metrics = {m["name"]: {"value": e2e[m["name"]]["best"],
                               "unit": m["unit"]}
                   for m in decl["end_to_end"] if m["name"] in e2e}
    print_errors(bench)
    print(result_line(bench, metrics))
    return 0 if bench.failed() == 0 else 1


def machine():
    def quiet(argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True,
                                  cwd=ROOT).stdout.strip()
        except OSError:
            return ""

    cache = {}
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = quiet([compiler, "--version"]).splitlines()
    return {
        "git_sha": quiet(["git", "rev-parse", "HEAD"]) or "unknown",
        "nproc": os.cpu_count(),
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
    }


def run_suite(args, decl, rundir):
    bench = Bench(args.seed, rundir)
    names = list(WORKLOADS)
    timed = timed_runs(bench, names, reps=args.reps)
    layers = {name: traced_stage(bench, name) for name in names}
    result = {"seed": args.seed, "reps": args.reps, "machine": machine(),
              "workloads": {}}
    for name in names:
        mine = [r for r in bench.runs if r.what.split()[0] == name]
        result["workloads"][name] = {
            "flags": WORKLOADS[name][0],
            "why": WORKLOADS[name][1],
            "attempted": len(mine),
            "failed": sum(1 for r in mine if r.errors),
            "error_rate": sum(1 for r in mine if r.errors) / len(mine),
            "end_to_end": e2e_summary(timed[name]),
            "per_layer": {m: {"value": layers[name].get(m), "unit": u}
                          for m, u in LAYER_UNITS.items()},
        }

    print(f"end-to-end: best [median] of {args.reps} runs, seed "
          f"{args.seed}")
    print(f"{'workload':20s}" + "".join(f"{m:>26s}" for m in E2E) +
          f"{'error_rate':>12s}")
    for name, w in result["workloads"].items():
        cells = []
        for metric in E2E:
            s = w["end_to_end"].get(metric)
            cells.append(f"{fmt(s['best'])} [{fmt(s['median'])}]"
                         if s else "n/a")
        print(f"{name:20s}" + "".join(f"{c:>26s}" for c in cells) +
              f"{w['error_rate']:>12.3g}")
    print("\nper-layer (traced stage; n/a where the layer metric does not "
          "apply)")
    print(f"{'metric':46s}" + "".join(f"{n:>20s}" for n in names))
    for metric, unit in LAYER_UNITS.items():
        print(f"{metric + ' [' + unit + ']':46s}" + "".join(
            f"{fmt(layers[n].get(metric)):>20s}" for n in names))
    print_errors(bench)

    result.update(correct=bench.failed() == 0, attempted=bench.attempted(),
                  failed=bench.failed())
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed")} |
                     {"metrics": {n: {m: s["best"] for m, s in
                                      w["end_to_end"].items()}
                                  for n, w in result["workloads"].items()}}))
    return 0 if bench.failed() == 0 else 1


def value_spread(s, better):
    """How far a best-of value moves when its runs are resampled: the
    interquartile range over the median of the best value of 400
    resamples (with replacement) of the runs."""
    rng = random.Random(0)
    pick = min if better == "lower" else max
    best = [pick(rng.choices(s["values"], k=len(s["values"])))
            for _ in range(400)]
    q1, median, q3 = statistics.quantiles(best, n=4)
    return (q3 - q1) / median


def compare(path_a, path_b, decl):
    """Prints one verdict per (workload, end-to-end metric) of result B
    against result A, the parent: "unresolved" when the spread of A's
    value is wider than the metric's bound (unless every run of B beats
    every run of A), else "worse" or "better" when B's value moved by
    more than the bound, else "same". Returns 1 if any verdict is
    "worse"."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    print(f"A: {path_a} ({a['machine']['git_sha'][:12]})  "
          f"B: {path_b} ({b['machine']['git_sha'][:12]})")
    print(f"{'workload':20s}{'metric':15s}{'A value':>14s}{'B value':>14s}"
          f"{'delta':>9s}{'A spread':>10s}{'bound':>7s}  verdict")
    worse = 0
    for name in WORKLOADS:
        ea = a["workloads"].get(name, {}).get("end_to_end", {})
        eb = b["workloads"].get(name, {}).get("end_to_end", {})
        for m in decl["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            if metric not in ea or metric not in eb:
                print(f"{name:20s}{metric:15s}  missing in one result")
                worse += 1
                continue
            sa, sb = ea[metric], eb[metric]
            lower = m["better"] == "lower"
            delta = (sb["best"] - sa["best"]) / sa["best"]
            worsening = delta if lower else -delta
            spread = value_spread(sa, m["better"])
            all_better = (max(sb["values"]) < min(sa["values"]) if lower
                          else min(sb["values"]) > max(sa["values"]))
            if spread > bound:
                verdict = "better" if all_better else "unresolved"
            elif worsening > bound:
                verdict = "worse"
            elif worsening < -bound:
                verdict = "better"
            else:
                verdict = "same"
            worse += verdict == "worse"
            print(f"{name:20s}{metric:15s}{fmt(sa['best']):>14s}"
                  f"{fmt(sb['best']):>14s}{delta:>+9.2%}{spread:>10.2%}"
                  f"{bound:>7.0%}  {verdict}")
    return 1 if worse else 0


def selftest(rundir):
    """A corrupted pinned value and a corrupted 3-shard report must both
    be caught."""
    bench = Bench(FINGERPRINT_SEED, rundir)
    ok = True
    single = bench.simulate("paper_single")
    bad = copy.deepcopy(single.report)
    bad["response"]["mean"] *= 1 + 1e-9
    if fingerprint_mismatch("paper_single", single.report) is not None:
        print("selftest: the genuine paper_single report fails its pins")
        ok = False
    if fingerprint_mismatch("paper_single", bad) is None:
        print("selftest: a corrupted response.mean was not caught")
        ok = False
    r = bench.simulate("pop_coupled")
    k = bench.simulate("pop_coupled", shards=SHARDS)
    check_same(k, r, ignore_extra=("pop_shards",))
    bad = copy.deepcopy(k)
    bad.errors = []
    bad.report["requests"]["cache_hits"] += 1
    check_same(bad, r, ignore_extra=("pop_shards",))
    if not bad.errors:
        print("selftest: a corrupted 3-shard cache_hits was not caught")
        ok = False
    print_errors(bench)
    ok = ok and bench.failed() == 0
    print(f"selftest: {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="with --workload: how long to repeat runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=15,
                        help="without --workload: timed runs per workload")
    parser.add_argument("--out", help="without --workload: result file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        decl = declaration()
        if args.compare:
            return compare(*args.compare, decl)
        build()
    except (BenchError, OSError, ValueError, KeyError, AssertionError) as e:
        print(f"bcastbench: {e}", file=sys.stderr)
        return 2
    rundir = BUILD / "runs" / str(os.getpid())
    rundir.mkdir(parents=True, exist_ok=True)
    if args.selftest:
        code = selftest(rundir)
    elif args.workload:
        code = run_one(args, decl, rundir)
    else:
        code = run_suite(args, decl, rundir)
    if code == 0:
        for path in rundir.iterdir():
            path.unlink()
        rundir.rmdir()
    else:
        print(f"run files kept in {rundir}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
