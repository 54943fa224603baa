#!/usr/bin/env python3
"""The veccost benchmark: four workloads, end-to-end metrics, and a traced run.

One run of one workload (the form BENCHMARK.json's command takes):

    python3 benchmark/run.py --workload verify --seed 3 --seconds 20 --trace 0

prints every metric of the workload by name with its unit, then, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, measured
from outside the real Release binaries; with --trace 1 they are its per_layer
metrics, which veccost_bench times in-process, call by call.

Without --workload it runs every workload --sets times (interleaved), then a
traced run of each, prints every metric, compares the sets against the bounds
and writes a results JSON (--out):

    python3 benchmark/run.py --seed 1 --sets 2 --out benchmark/results/x.json

The benchmark builds what it needs into .bench_build/ and writes nothing
else outside it: every veccost process runs in a private scratch directory
under .bench_build/tmp with every VECCOST_* variable removed from its
environment. See benchmark/README.md for the metric catalogue.
"""

import argparse
import ctypes
import itertools
import json
import math
import os
import platform
import random
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / ".bench_build"
SPEC_PATH = ROOT / "BENCHMARK.json"

TARGET = "cortex-a57"
JOBS = 4
SUITE_KERNELS = 151
VERIFY_CONFIGS = 298
VERIFY_N = (4096, 4160)  # the seed draws each invocation's n from this range
# `veccost tune --seed 1` digest, pinned when the benchmark was defined.
TUNE_DIGEST_SEED1 = "0ead9d6de43ea465"
# The gated tail. Serve p90 and above ride on multi-millisecond stalls of the
# host and spread by 0.13-0.2 between runs even at reference speed, p75 by
# under 0.1 (benchmark/README.md); higher percentiles are printed unbounded.
GATED_TAIL = 0.75
# Batch runs make at least this many invocations, so that their printed p90
# has ten samples beyond it.
MIN_INVOCATIONS = 100
SETUP_REPEATS = 9
# Unmeasured work at the start of every run. On the machine the benchmark
# was defined on, the first second of work after an idle spell ran about 3x
# slower (the virtual machine's host was slow to hand back memory and CPU).
WARMUP_S = 2
# Reference speed (benchmark/README.md): end-to-end timings are scaled to a
# machine on which `bench_reference work` takes WORK_REFERENCE_MS spawn to
# exit and the reference echo server answers at BUSY_RATE with a p50 of
# ECHO_REFERENCE_US -- about what the 4-core machine the benchmark was
# defined on measured when quiet. Batch runs time the reference after every
# REFERENCE_EVERY-th invocation.
WORK_REFERENCE_MS = 10.0
ECHO_REFERENCE_US = 30.0
REFERENCE_EVERY = 2
INFLATION_PAIRS = 5
PRESEED_ROWS = 20000
# Serve load (benchmark/README.md): fixed open-loop rates in requests per
# second, the closed loop's requests per round, the p99 limit for the
# sustained rate, the generator lateness p99 above which a round does not
# count, and the traced run's light phase.
LIGHT_RATE = 2000
BUSY_RATE = 8000
CAPACITY_REQUESTS = 20000
LIMIT_US = 1000
MAX_LATENESS_US = 1000
ROUNDS, SPARE_ROUNDS = 5, 2
# Phase lengths as shares of the run time: per round the light, busy and
# reference echo phases, and each probe of the sustained rate.
LIGHT_SHARE, BUSY_SHARE, ECHO_SHARE, PROBE_SHARE = 0.02, 0.06, 0.02, 0.04
MAX_PROBES = 6
TRACE_LIGHT_S = 3
COVERAGE = (0.9, 1.1)
TIMEOUT_S = 120
# Drops failed requests' +inf into a finite number the result line can carry.
FAILED_LATENCY_MS = 1e9

VERIFY_LINE = re.compile(
    r"^verified %d kernels, %d scalar/vector configurations on %s: "
    r"all equivalent$" % (SUITE_KERNELS, VERIFY_CONFIGS, TARGET))
TUNE_DIGEST = re.compile(r"^digest: ([0-9a-f]{16})$", re.M)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


class BenchError(Exception):
    """The benchmark could not measure (not a wrong output of the program)."""


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 1]; +inf (a failure) sorts last."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(samples):
    """The highest of p50/p90/p95/p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 95, 99):
        if samples * (100 - p) / 100 >= 10:
            best = p
    return best


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def local_factors(n, reference, nominal):
    """Speed factors of n samples when the reference ran after every
    REFERENCE_EVERY-th sample: nominal over the median of the five
    reference times nearest each sample, so a slow stretch inside a run is
    scaled by what the reference measured during that stretch."""
    window = 5
    factors = []
    for i in range(n):
        centre = min(i // REFERENCE_EVERY, len(reference) - 1)
        lo = max(0, min(centre - window // 2, len(reference) - window))
        factors.append(nominal / statistics.median(reference[lo:lo + window]))
    return factors


def worse_by(new, old, better):
    """How much worse `new` is than `old`, as a share of `old` (< 0: better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def regression(parent, change, bound, better):
    """The no-regression check for one metric over runs of both commits.

    "worse" when the change's median is worse than the parent's by more than
    `bound`; "unresolved" when the parent's own spread is wider than the
    bound, unless every change run beats every parent run; else "ok".
    """
    if all(worse_by(c, p, better) < 0 for c in change for p in parent):
        return "ok"
    if spread(parent) > bound:
        return "unresolved"
    delta = worse_by(statistics.median(change), statistics.median(parent),
                     better)
    return "worse" if delta > bound else "ok"


def gain(pairs, better):
    """Whether alternating (parent, change) pairs show a gain: the change
    wins at least 9 of every 10 pairs (ties count for neither side) and the
    medians differ by more than the distance between the parent's quartiles.
    """
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    wins = sum(1 for p, c in pairs if worse_by(c, p, better) < 0)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    moved = -worse_by(statistics.median(change), statistics.median(parent),
                      better) * statistics.median(parent)
    return len(pairs) >= 10 and wins >= 0.9 * len(pairs) and moved > q3 - q1


# ---------------------------------------------------------------------------
# BENCHMARK.json


def validate_spec(spec):
    """Every way `spec` breaks the benchmark contract, as messages."""
    errors = []
    if set(spec) != SPEC_KEYS:
        errors.append("keys must be exactly %s" % sorted(SPEC_KEYS))
        return errors
    names = []

    def check_name(name):
        if not isinstance(name, str) or not NAME.match(name):
            errors.append("bad name %r" % (name,))
        names.append(name)

    cmd = spec["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32 or
            not all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command must be 1-32 strings of at most 200 chars")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths must list 1-16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or len(p) > 200 or p.startswith("/")
                    or ".." in p.split("/")
                    or not re.match(r"^[A-Za-z0-9_./-]+$", p)):
                errors.append("bad path %r" % (p,))
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        errors.append("run_seconds must be a whole number from 1 to 60")
    wl = spec["workloads"]
    if not isinstance(wl, list) or not 2 <= len(wl) <= 8:
        errors.append("workloads must list 2 to 8 entries")
    else:
        for w in wl:
            if not isinstance(w, dict) or set(w) != {"name", "why"}:
                errors.append("workload needs exactly name and why")
                continue
            check_name(w["name"])
            if (not isinstance(w["why"], str) or len(w["why"]) > 200
                    or "\n" in w["why"]):
                errors.append("why of %s must be one line of <= 200 chars"
                              % w["name"])
    for key, limit, keys in (("end_to_end", 16,
                              {"name", "unit", "better", "bound"}),
                             ("per_layer", 128, {"name", "unit", "better"})):
        metrics = spec[key]
        if not isinstance(metrics, list) or not 1 <= len(metrics) <= limit:
            errors.append("%s must list 1 to %d metrics" % (key, limit))
            continue
        for m in metrics:
            if not isinstance(m, dict) or set(m) != keys:
                errors.append("%s metric needs exactly %s" % (key, sorted(keys)))
                continue
            check_name(m["name"])
            if not isinstance(m["unit"], str) or not UNIT.match(m["unit"]):
                errors.append("bad unit %r" % (m["unit"],))
            if m["better"] not in ("lower", "higher"):
                errors.append("better of %s is lower or higher" % m["name"])
            if key == "end_to_end":
                b = m["bound"]
                if (not isinstance(b, (int, float)) or isinstance(b, bool)
                        or not 0 < b <= 0.25):
                    errors.append("bound of %s must be in (0, 0.25]"
                                  % m["name"])
    if len(names) != len(set(names)):
        errors.append("names must be used once")
    setup = [m for m in spec["end_to_end"]
             if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        errors.append("end_to_end must hold setup_s in s, lower is better")
    return errors


def load_spec():
    spec = json.loads(SPEC_PATH.read_text())
    errors = validate_spec(spec)
    if errors:
        raise BenchError("BENCHMARK.json: " + "; ".join(errors))
    return spec


# ---------------------------------------------------------------------------
# Building and running processes


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the Release binaries; returns their paths."""
    for needed in ("src/CMakeLists.txt", "tools/veccost_cli.cpp"):
        if not (ROOT / needed).exists():
            raise BenchError("missing %s: run from a veccost checkout" % needed)
    BUILD_DIR.mkdir(exist_ok=True)
    with open(BUILD_DIR / "build.log", "w") as out:
        steps = [["cmake", "--build", str(BUILD_DIR), "-j", str(JOBS)]]
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            log("benchmark: building veccost (Release) into %s" % BUILD_DIR)
            steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B",
                             str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=900).returncode != 0:
                raise BenchError("build failed; see %s"
                                 % (BUILD_DIR / "build.log"))
    return {"veccost": str(BUILD_DIR / "veccost"),
            "bench": str(BUILD_DIR / "veccost_bench"),
            "reference": str(BUILD_DIR / "bench_reference")}


def hermetic_env(**extra):
    """The caller's environment minus every VECCOST_* knob, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VECCOST_")}
    env.update(extra)
    return env


class Scratch:
    """A private directory under .bench_build/tmp, removed on exit."""

    def __enter__(self):
        (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=BUILD_DIR / "tmp"))
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def timed_run(cmd, cwd, env):
    """Run to completion; (wall milliseconds spawn to exit, completed)."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    return (time.perf_counter() - t0) * 1e3, proc


def bench_json(tools, args, cwd, timeout=TIMEOUT_S):
    """Run one veccost_bench command and parse the JSON it prints."""
    proc = subprocess.run([tools["bench"]] + args, cwd=cwd,
                          env=hermetic_env(), capture_output=True, text=True,
                          timeout=timeout, preexec_fn=_die_with_parent)
    if proc.returncode != 0:
        raise BenchError("veccost_bench %s failed: %s"
                         % (args[0], proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


_prctl = ctypes.CDLL(None, use_errno=True).prctl
PR_SET_PDEATHSIG = 1


def _die_with_parent():
    """Runs in the child before exec: SIGKILL it when the runner dies,
    however the runner dies (Linux)."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def control(port, verb):
    """Send one control verb (metrics, shutdown) and return the reply."""
    line = json.dumps({"v": "veccost-serve-v1", "id": verb, "verb": verb})
    buf = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(line.encode() + b"\n")
        while not buf.endswith(b"\n"):
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    reply = json.loads(buf)
    if not reply.get("ok"):
        raise BenchError("%s verb failed: %s" % (verb, reply))
    return reply


class Server:
    """A server on an ephemeral port that prints "serving on port N" when
    ready: the veccost daemon or the reference echo server. Stopped with the
    shutdown verb, killed if that fails or anything else goes wrong."""

    def __init__(self, cmd, cwd):
        self.cmd = cmd
        self.cwd = cwd
        self.proc = None
        self.port = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def start(self):
        """Spawn and wait for the readiness line; returns the port."""
        self.proc = subprocess.Popen(
            self.cmd, cwd=self.cwd, env=hermetic_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            preexec_fn=_die_with_parent)
        buf = b""
        deadline = time.monotonic() + 60
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buf:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(timeout=remaining):
                    raise BenchError("daemon never printed its port")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError("daemon exited before it was ready")
                buf += chunk
        m = re.match(rb"serving on port (\d+)", buf)
        if not m:
            raise BenchError("unexpected readiness line %r" % buf)
        self.port = int(m.group(1))
        return self.port

    def stop(self):
        control(self.port, "shutdown")
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def daemon(tools, cache_dir, cwd):
    """`veccost serve --port 0` caching into `cache_dir`."""
    return Server([tools["veccost"], "serve", "--port", "0", "--cache-dir",
                   str(cache_dir), "--jobs", str(JOBS),
                   # No shedding: an open loop meets a stall of the machine
                   # with a queue, and the queue wait counts as latency.
                   "--queue-limit", "1000000"], cwd)


# ---------------------------------------------------------------------------
# Workloads (trace 0): each returns {"metrics", "attempted", "failed",
# "problems"}; metrics holds every catalogue metric of the workload.


def startup_probe(tools, cwd):
    """setup_s of the batch workloads: the median spawn-to-exit time of
    `veccost list`, i.e. loading the binary, static initialisation and the
    suite registry, which every invocation pays before its real work."""
    times = []
    for _ in range(SETUP_REPEATS):
        ms, proc = timed_run([tools["veccost"], "list"], cwd, hermetic_env())
        if proc.returncode != 0:
            raise BenchError("veccost list failed: " + proc.stderr.strip())
        times.append(ms / 1e3)
    return statistics.median(times)


def batch_metrics(samples_ms, setup_s, reference_ms):
    """The end-to-end metrics with each invocation scaled to reference speed
    by its local factor (setup_s by the first one), and the same unscaled as
    raw.<name>."""

    def stats(factors):
        ms = [s * f for s, f in zip(samples_ms, factors)]
        return {
            "latency.p50_ms": percentile(ms, 0.50),
            "latency.p75_ms": percentile(ms, GATED_TAIL),
            "throughput": SUITE_KERNELS * len(ms) / (sum(ms) / 1e3),
            "setup_s": setup_s * factors[0],
        }

    metrics = stats(local_factors(len(samples_ms), reference_ms,
                                  WORK_REFERENCE_MS))
    metrics.update(("raw." + k, v)
                   for k, v in stats([1.0] * len(samples_ms)).items())
    tail = tail_percentile(len(samples_ms))
    metrics.update({
        "speed_factor": WORK_REFERENCE_MS / statistics.median(reference_ms),
        "reference.work_ms": statistics.median(reference_ms),
        "invocations": len(samples_ms),
        "run_ms.tail_pct": tail,
        "run_ms.tail": percentile(samples_ms, tail / 100),
        "run_ms.max": max(samples_ms),
    })
    return metrics


def run_batch(tools, seconds, scratch, invocation, check):
    """Cold invocations back to back until `seconds` have passed and at
    least MIN_INVOCATIONS were made, with a run of the speed reference after
    every REFERENCE_EVERY-th. invocation(i) gives the arguments and extra
    environment of invocation i; check(process) says what is wrong with its
    result, or None."""
    setup_s = startup_probe(tools, scratch)
    samples, reference, failed, problems = [], [], 0, []
    end = time.perf_counter() + seconds
    while len(samples) < MIN_INVOCATIONS or time.perf_counter() < end:
        args, env = invocation(len(samples))
        ms, proc = timed_run([tools["veccost"]] + args, scratch,
                             hermetic_env(**env))
        samples.append(ms)
        problem = check(proc)
        if problem is not None:
            failed += 1
            problems = (problems + [problem])[:10]
        if len(samples) % REFERENCE_EVERY == 0:
            ms, proc = timed_run([tools["reference"], "work"], scratch,
                                 hermetic_env())
            if proc.returncode != 0:
                raise BenchError("bench_reference work failed")
            reference.append(ms)
    return {"metrics": batch_metrics(samples, setup_s, reference),
            "attempted": len(samples), "failed": failed, "problems": problems}


def run_verify(tools, seed, seconds, scratch):
    rng = random.Random(seed)

    def check(proc):
        lines = proc.stdout.strip().splitlines() or ["no output"]
        if proc.returncode == 0 and VERIFY_LINE.match(lines[-1]):
            return None
        return "verify printed: %s" % lines[-1]

    return run_batch(
        tools, seconds, scratch,
        lambda i: (["verify", TARGET, str(rng.randrange(*VERIFY_N)),
                    "--jobs", str(JOBS)], {}),
        check)


def run_tune(tools, seed, seconds, scratch):
    reference = bench_json(tools, ["tune-digest", "--seed", str(seed),
                                   "--scratch", str(scratch / "reference")],
                           scratch)["digest"]
    cache = scratch / "cache"

    def invocation(i):
        shutil.rmtree(cache, ignore_errors=True)  # fresh and empty each time
        return (["tune", TARGET, "--seed", str(seed), "--jobs", str(JOBS)],
                {"VECCOST_CACHE_DIR": str(cache)})

    def check(proc):
        m = TUNE_DIGEST.search(proc.stdout)
        if proc.returncode == 0 and m and m.group(1) == reference:
            return None
        return "tune digest %s, in-process reference %s" % (
            m.group(1) if m else "missing", reference)

    result = run_batch(tools, seconds, scratch, invocation, check)
    if seed == 1 and reference != TUNE_DIGEST_SEED1:
        result["problems"].append("tune digest for seed 1 is %s, pinned %s"
                                  % (reference, TUNE_DIGEST_SEED1))
    result["digest"] = reference
    return result


def serve_cache(tools, variant, seed, scratch, name):
    """The cache directory a daemon of `variant` starts from: empty for hot;
    for cold, PRESEED_ROWS rows measured from a disjoint seed."""
    cache = scratch / name
    if variant == "cold":
        out = bench_json(tools, ["preseed", "--dir", str(cache), "--seed",
                                 str(seed), "--rows", str(PRESEED_ROWS)],
                         scratch)
        if out["failed"] or out["entries"] != PRESEED_ROWS:
            raise BenchError("pre-seeding the serve cache failed: %s" % out)
    return cache


def ready_daemon(tools, variant, cache, scratch):
    """Spawn a daemon and bring it to ready: the readiness line, then for
    the hot variant the warm pass. Returns (daemon, seconds taken); the
    caller enters the daemon's context, which kills it on the way out."""
    t0 = time.perf_counter()
    server = daemon(tools, cache, scratch)
    try:
        server.start()
        if variant == "hot":
            warm = bench_json(tools, ["warm", "--port", str(server.port)],
                              scratch)
            if warm["failed"]:
                raise BenchError("warm pass failed: %s" % warm)
    except BaseException:
        server.__exit__()
        raise
    return server, time.perf_counter() - t0


def open_loop_stats(phase):
    """Latency (from each request's due time) and generator lateness (send
    time minus due time) of an open-loop phase, in microseconds. A failed,
    refused or unanswered request has infinite latency."""
    period = 1e6 / phase["rate"]
    latency, lateness = [], []
    for i, (sent, done) in enumerate(zip(phase["sent_us"], phase["done_us"])):
        latency.append(done - i * period if done >= 0 else math.inf)
        lateness.append(sent - i * period)
    return latency, lateness


def closed_loop_stats(phase):
    """Latency from send (infinite when failed) and ok responses per second
    from the first send to the last answer, of a closed-loop phase."""
    latency = [done - sent if done >= 0 else math.inf
               for sent, done in zip(phase["sent_us"], phase["done_us"])]
    ok = sum(1 for done in phase["done_us"] if done >= 0)
    return latency, ok / phase["seconds"]


def backlog_grows(latency):
    """The last quarter of a phase waited over twice as long, on average,
    as the first quarter."""
    q = len(latency) // 4
    return q > 0 and sum(latency[-q:]) > 2 * sum(latency[:q])


def meets_limit(latency):
    """No failures, p99 within LIMIT_US, and a backlog that does not grow."""
    return percentile(latency, 0.99) <= LIMIT_US and not backlog_grows(latency)


def sustained_rate(probe, lo, hi):
    """Bisect between a rate known to meet the limit (`lo`, 0 = none) and
    one that cannot (`hi`) down to 5% resolution; probe(rate) -> bool.
    Returns the highest passing rate and the probes made."""
    probes = []
    while len(probes) < MAX_PROBES and lo > 0 and hi > lo * 1.05:
        rate = (lo + hi) / 2
        ok = probe(rate)
        probes.append((rate, ok))
        if ok:
            lo = rate
        else:
            hi = rate
    return lo, probes


class Load:
    """Runs phases of one request stream against a daemon, each call on
    fresh connections and from its own block of stream indices: a round then
    covers the same requests in every run with the seed, however many the
    previous closed loop sent, and serve_cold's n never repeats (veccost_bench
    keeps stream n below the pre-seeded rows' while indices stay under 2^24,
    i.e. 16 blocks)."""

    BLOCK = 1 << 20

    def __init__(self, tools, port, seed, variant, scratch):
        self.tools, self.port, self.seed = tools, port, seed
        self.variant, self.scratch = variant, scratch

    def run(self, block, phases, digest):
        spec = ",".join("open:%g:%g" % p[1:] if p[0] == "open"
                        else "closed:%d" % p[1] for p in phases)
        first = block * self.BLOCK
        return bench_json(
            self.tools,
            ["load", "--port", str(self.port), "--seed", str(self.seed),
             "--variant", self.variant, "--first", str(first),
             "--phases", spec, "--digest", "1" if digest else "0",
             "--scratch", str(self.scratch / ("replay-%d" % block))],
            self.scratch)


def serve_rounds(load, echo, seconds):
    """ROUNDS rounds of light, busy and capacity (CAPACITY_REQUESTS) phases
    against the daemon, then a busy-rate phase against the reference echo
    server, pooled per phase. Interleaving spreads every metric over the
    whole run, so a slow stretch of the machine lands on all of them and on
    the reference alike, and each round's fresh connections (the daemon
    gives every connection its own reader thread) spread them over thread
    placements. A round whose generator ran late against the daemon cannot
    tell the daemon's delays from its own: it still counts for correctness
    but not for the metrics, and a spare replaces it."""
    rounds = []
    while sum(1 for r in rounds if not r["late"]) < ROUNDS and \
            len(rounds) < ROUNDS + SPARE_ROUNDS:
        out = load.run(len(rounds),
                       [("open", LIGHT_RATE, LIGHT_SHARE * seconds),
                        ("open", BUSY_RATE, BUSY_SHARE * seconds),
                        ("closed", CAPACITY_REQUESTS)], digest=True)
        reference = echo.run(len(rounds), [("open", BUSY_RATE,
                                            ECHO_SHARE * seconds)],
                             digest=False)
        light, busy, capacity = out["phases"]
        r = {"light": open_loop_stats(light), "busy": open_loop_stats(busy),
             "capacity": closed_loop_stats(capacity),
             "echo": open_loop_stats(reference["phases"][0]), "out": out}
        r["late"] = max(percentile(r["light"][1], 0.99),
                        percentile(r["busy"][1], 0.99)) > MAX_LATENESS_US
        rounds.append(r)
    return rounds


def serve_metrics(rounds, setups):
    """The end-to-end metrics: each round's busy latencies and capacity
    scaled to reference speed by the factor of its own echo phase, then the
    median over rounds, which one bad round cannot move (setup_s takes the
    median factor); and the same unscaled as raw.<name>."""
    echo_p50 = [percentile(r["echo"][0], 0.5) for r in rounds]

    def stats(factors):
        def over_rounds(value):
            return statistics.median(value(r, f)
                                     for r, f in zip(rounds, factors))
        return {
            "latency.p50_ms": over_rounds(
                lambda r, f: percentile(r["busy"][0], 0.50) * f / 1e3),
            "latency.p75_ms": over_rounds(
                lambda r, f: percentile(r["busy"][0], GATED_TAIL) * f / 1e3),
            "throughput": over_rounds(lambda r, f: r["capacity"][1] / f),
            "setup_s": statistics.median(setups) * statistics.median(factors),
        }

    factors = [ECHO_REFERENCE_US / e for e in echo_p50]
    metrics = stats(factors)
    metrics.update(("raw." + k, v)
                   for k, v in stats([1.0] * len(rounds)).items())
    metrics["speed_factor"] = statistics.median(factors)
    metrics["reference.echo_p50_us"] = statistics.median(echo_p50)
    return metrics


def run_serve(tools, variant, seed, seconds, scratch):
    preseeded = serve_cache(tools, variant, seed, scratch, "preseed")
    setups = []
    for k in range(SETUP_REPEATS):
        # Hot set-ups start empty and warm up; cold ones all load the same
        # pre-seeded rows (nothing is stored until the load starts).
        cache = preseeded if variant == "cold" else scratch / ("cache-%d" % k)
        daemon, setup_s = ready_daemon(tools, variant, cache, scratch)
        setups.append(setup_s)
        with daemon:
            if k < SETUP_REPEATS - 1:
                daemon.stop()
                continue
            load = Load(tools, daemon.port, seed, variant, scratch)
            with Server([tools["reference"], "echo"], scratch) as echo:
                echo.start()
                rounds = serve_rounds(
                    load, Load(tools, echo.port, seed, "hot", scratch),
                    seconds)
                echo.stop()
            pooled = [r for r in rounds if not r["late"]] or rounds
            light = [x for r in pooled for x in r["light"][0]]
            busy = [x for r in pooled for x in r["busy"][0]]
            capacity = statistics.median(r["capacity"][1] for r in pooled)
            lo = BUSY_RATE if meets_limit(busy) else \
                LIGHT_RATE if meets_limit(light) else 0

            blocks = itertools.count(ROUNDS + SPARE_ROUNDS)

            def probe(rate):
                out = load.run(next(blocks),
                               [("open", rate, PROBE_SHARE * seconds)],
                               digest=False)
                return meets_limit(open_loop_stats(out["phases"][0])[0])

            sustained, probes = sustained_rate(probe, lo, max(lo, capacity))
            daemon.stop()

    attempted = failed = stray = measures = cached = 0
    problems = []
    if any(math.inf in r["echo"][0] for r in rounds):
        problems.append("the reference echo server failed requests")
    for r in rounds:
        for phase, (latency, _) in zip(r["out"]["phases"],
                                       (r["light"], r["busy"], r["capacity"])):
            attempted += len(latency)
            failed += sum(1 for v in latency if v == math.inf)
            stray += phase["stray"]
            measures += phase["measures"]
            cached += phase["cached"]
        if r["out"]["digest"] != r["out"]["replay_digest"]:
            problems.append("daemon digest %s != in-process replay %s"
                            % (r["out"]["digest"], r["out"]["replay_digest"]))
    if stray:
        problems.append("%d responses matched no request" % stray)
    if all(r["late"] for r in rounds):
        problems.append("the generator ran late (lateness p99 over %d us) in "
                        "every round" % MAX_LATENESS_US)
    metrics = serve_metrics(pooled, setups)
    metrics.update({
        "busy.p90_us": percentile(busy, 0.90),
        "busy.p99_us": percentile(busy, 0.99),
        "busy.lateness_p99_us": max(percentile(r["busy"][1], 0.99)
                                    for r in pooled),
        "light.p50_us": percentile(light, 0.50),
        "light.p90_us": percentile(light, 0.90),
        "light.p99_us": percentile(light, 0.99),
        "light.lateness_p99_us": max(percentile(r["light"][1], 0.99)
                                     for r in pooled),
        "sustained_rps": sustained,
        "sustained.probes": len(probes),
        "late_rounds": sum(1 for r in rounds if r["late"]),
        "cache_hit_ratio": cached / max(measures, 1),
    })
    # Spare rounds are checked against the replay too, but only the first
    # ROUNDS rounds exist in every run, so only they make the run's digest.
    digest = "".join(r["out"]["digest"] for r in rounds[:ROUNDS])
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "digest": digest}


# ---------------------------------------------------------------------------
# Traced run (trace 1)


def verify_n(seed):
    return random.Random(seed).randrange(*VERIFY_N)


def parallel_inflation(tools, n, scratch):
    """Per-kernel validation time summed at --jobs 4 over the same at
    --jobs 1, read from the `measure.validate_kernel_ns` histogram that cold
    `veccost verify` processes export (--metrics-out); median over pairs."""
    ratios = []
    for _ in range(INFLATION_PAIRS):
        sums = {}
        for jobs in (1, JOBS):
            out = scratch / ("metrics-jobs%d.json" % jobs)
            _, proc = timed_run(
                [tools["veccost"], "verify", TARGET, str(n), "--jobs",
                 str(jobs), "--metrics-out", str(out)], scratch,
                hermetic_env())
            if proc.returncode != 0:
                raise BenchError("veccost verify failed: " + proc.stderr)
            histograms = json.loads(out.read_text())["histograms"]
            sums[jobs] = histograms["measure.validate_kernel_ns"]["sum"]
        ratios.append(sums[JOBS] / sums[1])
    return statistics.median(ratios)


def run_trace(tools, workload, seed, scratch):
    """Per-layer metrics: a light phase against a daemon of the workload's
    variant and a scrape of its registry, then veccost_bench's in-process
    layer timings with no daemon running."""
    variant = "cold" if workload == "serve_cold" else "hot"
    cache = serve_cache(tools, variant, seed, scratch, "cache")
    daemon, _ = ready_daemon(tools, variant, cache, scratch)
    with daemon:
        phase = Load(tools, daemon.port, seed, variant, scratch).run(
            0, [("open", LIGHT_RATE, TRACE_LIGHT_S)], digest=False)["phases"][0]
        registry = control(daemon.port, "metrics")["result"]
        daemon.stop()
    out = bench_json(
        tools, ["trace", "--seed", str(seed), "--variant", variant,
                "--verify-n", str(verify_n(seed)),
                "--scratch", str(scratch / "trace")], scratch)
    m, checks = out["metrics"], out["checks"]
    m["eval.parallel_inflation"] = parallel_inflation(tools, verify_n(seed),
                                                      scratch)

    light, _ = open_loop_stats(phase)
    counters = registry["counters"]
    batch = registry["histograms"].get("serve.batch_size", {})
    m["serve.light_p50_us"] = percentile(light, 0.5)
    m["serve.wait_us.p50"] = m["serve.light_p50_us"] - m["serve.service_us.p50"]
    m["serve.cache_hit_ratio"] = phase["cached"] / max(phase["measures"], 1)
    m["serve.batches"] = counters.get("serve.batches", 0)
    m["serve.batch_size.mean"] = batch.get("sum", 0) / max(batch.get("count", 0), 1)
    m["serve.shed"] = counters.get("serve.shed", 0)
    m["serve.queue_depth.max"] = registry["gauges"].get(
        "serve.queue_depth", {}).get("max", 0)
    m["serve.cache.store"] = counters.get("serve.cache.store", 0)

    results = []  # (passed, what it means when it fails)
    for layer in ("verify", "tune", "serve"):
        ratio = m["coverage." + layer]
        results.append((COVERAGE[0] <= ratio <= COVERAGE[1],
                        "coverage guard: the %s layers sum to %.3f of the "
                        "composite call" % (layer, ratio)))
    results.append((m["eval.validate_configs"] == VERIFY_CONFIGS and
                    checks["verify_configs_replica"] == VERIFY_CONFIGS,
                    "validated %s (replica %s) configurations, expected %d"
                    % (m["eval.validate_configs"],
                       checks["verify_configs_replica"], VERIFY_CONFIGS)))
    results.append((checks["tune_digest_replica"] ==
                    checks["tune_digest_direct"],
                    "tune replica digest %s != tune_suite's %s"
                    % (checks["tune_digest_replica"],
                       checks["tune_digest_direct"])))
    failed = sum(1 for v in light if v == math.inf)
    results.append((failed == 0, "%d light-phase requests failed" % failed))
    problems = [msg for passed, msg in results if not passed]
    return {"metrics": m, "attempted": len(results), "failed": len(problems),
            "problems": problems}


def warm_up(tools, scratch):
    """WARMUP_S seconds of `veccost verify`, results ignored."""
    end = time.perf_counter() + WARMUP_S
    while time.perf_counter() < end:
        timed_run([tools["veccost"], "verify", TARGET, str(VERIFY_N[0]),
                   "--jobs", str(JOBS)], scratch, hermetic_env())


def run_workload(tools, workload, seed, seconds, trace):
    with Scratch() as scratch:
        warm_up(tools, scratch)
        if trace:
            return run_trace(tools, workload, seed, scratch)
        if workload == "verify":
            return run_verify(tools, seed, seconds, scratch)
        if workload == "tune":
            return run_tune(tools, seed, seconds, scratch)
        return run_serve(tools, workload.split("_")[1], seed, seconds, scratch)


# ---------------------------------------------------------------------------
# Reporting

# Units of the metrics printed beside the BENCHMARK.json ones.
EXTRA_UNITS = {
    "invocations": "count", "run_ms.tail_pct": "%", "run_ms.tail": "ms",
    "run_ms.max": "ms", "busy.p90_us": "us", "busy.p99_us": "us",
    "busy.lateness_p99_us": "us", "light.p50_us": "us", "light.p90_us": "us",
    "light.p99_us": "us", "light.lateness_p99_us": "us",
    "sustained_rps": "1/s", "sustained.probes": "count",
    "late_rounds": "count", "cache_hit_ratio": "ratio",
    "speed_factor": "ratio", "reference.work_ms": "ms",
    "reference.echo_p50_us": "us",
}


def units(spec):
    u = dict(EXTRA_UNITS)
    for m in spec["end_to_end"]:
        u[m["name"]] = u["raw." + m["name"]] = m["unit"]
    for m in spec["per_layer"]:
        u[m["name"]] = m["unit"]
    return u


def fmt(v):
    return "fail" if v is None or v == math.inf else "%.6g" % v


def result_line(spec, result, trace):
    """The last line of a one-workload run: exactly the BENCHMARK.json
    metrics."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    correct = result["failed"] == 0 and not result["problems"]
    for m in wanted:
        v = result["metrics"].get(m["name"])
        if v is None or not math.isfinite(v):
            correct = False
            v = FAILED_LATENCY_MS
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return json.dumps({"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_result(spec, workload, result):
    u = units(spec)
    for name, v in result["metrics"].items():
        print("%-10s %-32s %14s %s" % (workload, name, fmt(v), u.get(name, "")))
    for p in result["problems"]:
        print("%-10s PROBLEM %s" % (workload, p))


def git_rev():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def full_run(spec, tools, seed, seconds, sets, out_path):
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = {w: [] for w in workloads}
    for s in range(sets):
        order = workloads if s % 2 == 0 else workloads[::-1]
        for w in order:
            log("benchmark: set %d/%d, %s" % (s + 1, sets, w))
            result = run_workload(tools, w, seed, seconds, trace=False)
            runs[w].append(result)
            print_result(spec, w, result)
    traced = {}
    for w in workloads:
        log("benchmark: traced run, %s" % w)
        traced[w] = run_workload(tools, w, seed, seconds, trace=True)
        print_result(spec, w, traced[w])

    verdicts, ok = {}, True
    for w in workloads:
        for r in runs[w] + [traced[w]]:
            ok = ok and r["failed"] == 0 and not r["problems"]
        digests = {r.get("digest") for r in runs[w]}
        if len(digests) > 1:
            ok = False
            print("%-10s PROBLEM digests differ across sets: %s"
                  % (w, sorted(digests)))
        if sets < 2:
            continue
        for name, m in bounds.items():
            first = runs[w][0]["metrics"][name]
            agree = all(abs(r["metrics"][name] - first) <= m["bound"] * first
                        for r in runs[w][1:])
            verdicts["%s/%s" % (w, name)] = agree
            ok = ok and (agree or name == "setup_s")
            print("%-10s sets agree on %-18s %s" % (w, name,
                                                    "yes" if agree else "NO"))
    doc = {
        "schema": "veccost-benchmark-results-v1",
        "rev": git_rev(),
        "seed": seed,
        "seconds": seconds,
        "sets": sets,
        "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "units": units(spec),
        "runs": runs,
        "traced": traced,
        "sets_agree": verdicts,
        "ok": ok,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=1, default=str) + "\n")
    print("results: %s" % out_path)
    every = [r for w in workloads for r in runs[w] + [traced[w]]]
    print(json.dumps({
        "correct": ok, "attempted": sum(r["attempted"] for r in every),
        "failed": sum(r["failed"] for r in every),
        "metrics": {"%s/%s" % (w, m): {
            "value": statistics.median(r["metrics"][m] for r in runs[w]),
            "unit": bounds[m]["unit"]} for w in workloads for m in bounds}}))
    return 0 if ok else 1


def compare(spec, parent_path, change_path):
    """Judge a change against its parent from one-workload result lines:
    one file per side with one result line per run, the i-th lines of the
    two files being one of the alternating pairs."""
    def runs(path):
        return [json.loads(line)["metrics"]
                for line in Path(path).read_text().splitlines() if line.strip()]

    def quartiles(v):
        return "/".join("%.6g" % q for q in statistics.quantiles(v, n=4))

    parent, change = runs(parent_path), runs(change_path)
    if len(parent) != len(change) or len(parent) < 2:
        raise BenchError("need as many runs of the change as of the parent, "
                         "at least 2 (10 to claim a gain)")
    print("%-16s %-30s %-30s %-11s %s" % ("metric", "parent q1/median/q3",
                                          "change q1/median/q3", "regression",
                                          "gain"))
    for m in spec["end_to_end"]:
        p = [r[m["name"]]["value"] for r in parent]
        c = [r[m["name"]]["value"] for r in change]
        print("%-16s %-30s %-30s %-11s %s" % (
            m["name"], quartiles(p), quartiles(c),
            regression(p, c, m["bound"], m["better"]),
            "yes" if gain(list(zip(p, c)), m["better"]) else "no"))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run one workload (BENCHMARK.json's command)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--seconds", type=int, help="measured time per run "
                    "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, default=1,
                    help="without --workload: runs of every workload")
    ap.add_argument("--out", type=Path, default=BUILD_DIR / "results.json",
                    help="without --workload: the results JSON")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                    help="judge result lines of a change against its parent's")
    args = ap.parse_args(argv)
    # Unwind (and so stop every daemon) on a polite kill too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        spec = load_spec()
        if args.compare:
            return compare(spec, *args.compare)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError("unknown workload %r (one of %s)"
                             % (args.workload, ", ".join(names)))
        seconds = args.seconds or spec["run_seconds"]
        tools = build()
        if args.workload is None:
            return full_run(spec, tools, args.seed, seconds, max(1, args.sets),
                            args.out)
        result = run_workload(tools, args.workload, args.seed, seconds,
                              bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log("benchmark: %s" % e)
        return 1
    print_result(spec, args.workload, result)
    print(result_line(spec, result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
