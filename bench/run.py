"""leibnizkit benchmark: one command for every workload and metric.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/``.  Every workload is a closed loop with one client in one process:
the fixed operation list runs in passes until ``--seconds`` have elapsed and
every operation has run at least once.  Each answer is checked against its
reference outside the timed region; exceptions and wrong answers count as
failures and never stop the run.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see README.md).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 9173  # differs from every seed used under tests/
SETUP_PROBES = 15
IMPORT_PROBES = 3
BRACKET_ARITIES = range(1, 8)  # output arities of brackets of degree 0..2 cochains
# The calibration task runs between any two operations.  CAL_REPS makes it
# take about CAL_NOMINAL_S on a shared 2-core Intel Xeon VM in its slower
# state (about 5 ms in its faster one).
CAL_REPS = 160
CAL_NOMINAL_S = 0.009
SAMPLE_EVERY_S = 0.2  # calibration period inside a long operation
# Set-up and operations that are fresh processes are scaled by a reference
# process instead: a fresh interpreter that imports stdlib modules and does
# Fraction and dict work, as they do, but runs no leibnizkit code.  Process
# start and imports slow down more than the calibration task when the core is
# slow, so the task would under-correct them.
# The reference takes about REF_NOMINAL_S on the VM above in its slower state.
REF_CODE = ("import csv, decimal, difflib, email.parser, http.client, statistics, xml.dom.minidom\n"
            "from fractions import Fraction\n"
            "acc, seen = Fraction(0), {}\n"
            "for i in range(20000):\n"
            "    acc += Fraction(i % 7, i % 5 + 1)\n"
            "    seen[i % 97, i % 13] = seen.get((i % 97, i % 13), 0) + 1\n")
REF_NOMINAL_S = 0.17


def calibrate() -> float:
    """Time a fixed pure-Python task that shares nothing with leibnizkit but
    resembles its inner loops: small tuples, modular int and Fraction
    arithmetic, dict updates and calls."""
    start = time.perf_counter()
    p = 7
    rows = [tuple((3 * i + j) % p for j in range(6)) for i in range(6)]
    seen = {}
    acc = Fraction(0)
    for rep in range(CAL_REPS):
        cols = tuple(zip(*rows))
        rows = [tuple(sum(a * b for a, b in zip(r, c)) % p or 1 for c in cols) for r in rows]
        key = rows[rep % 6]
        seen[key] = seen.get(key, 0) + 1
        acc += Fraction(sum(key), rep % 5 + 2)
    return time.perf_counter() - start


def _median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten values beyond it, as
    (value, percentile, values beyond); the maximum when there are fewer
    than eleven values."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    idx = n - 11
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child_wall(cmd) -> float:
    """Wall time of a fresh interpreter running ``cmd`` to completion."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=workloads.child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return elapsed


def reference_wall() -> float:
    """Wall time of the reference process."""
    return _child_wall([sys.executable, "-c", REF_CODE])


def measure_setup(workload: str, seed: int):
    """setup_s: process start until the first operation is ready (import,
    catalog load, input generation); the median over fresh processes, each
    scaled to nominal CPU speed by the reference processes just before and
    after it.  Returns the median, the raw times and the reference times."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
           "--seed", str(seed)]
    raw, scaled = [], []
    refs = [reference_wall()]
    for _ in range(SETUP_PROBES):
        elapsed = _child_wall(cmd)
        refs.append(reference_wall())
        raw.append(elapsed)
        scaled.append(elapsed * 2 * REF_NOMINAL_S / (refs[-2] + refs[-1]))
    return _median(scaled), raw, refs


def measure_cli_import():
    code = ("import time; t = time.perf_counter(); import leibnizkit.cli; "
            "print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.child_env(),
                             stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if out.returncode != 0:
            raise RuntimeError(f"import probe exited {out.returncode}: {out.stderr[-500:]}")
        samples.append(float(out.stdout.strip()))
    return _median(samples)


class Sampler:
    """Times the calibration task every SAMPLE_EVERY_S while an operation
    runs, from a SIGALRM handler, so that a long operation is scaled by the
    speed the core had while it ran."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> float:
        """Stop sampling; returns the time spent calibrating."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.spent


class Runner:
    """Runs operations, times them and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []  # first few, for the run record
        self.calibrations = []
        self.references = []

    def calibrate(self) -> float:
        self.calibrations.append(calibrate())
        return self.calibrations[-1]

    def reference(self) -> float:
        self.references.append(reference_wall())
        return self.references[-1]

    def slowdown(self) -> float:
        """How much slower than nominal the CPU ran, on average, in this run."""
        if self.references:
            return statistics.mean(self.references) / REF_NOMINAL_S
        return statistics.mean(self.calibrations) / CAL_NOMINAL_S

    def run_op(self, op, tracer=None, sampler=None):
        if tracer is not None:
            tracer.request = op.name
            tracer.active = True
        if sampler is not None:
            sampler.start()
        start = time.perf_counter()
        try:
            out, err = op.run(), None
        except Exception as exc:  # a failed request is counted, never fatal
            out, err = None, exc
        elapsed = time.perf_counter() - start
        if sampler is not None:
            elapsed -= sampler.stop()
        if tracer is not None:
            tracer.active = False
        verdicts = [False] * op.size()
        if err is None:
            try:
                verdicts = op.verdicts(out)
            except Exception as exc:
                err = exc
        self.attempted += len(verdicts)
        wrong = [i for i, ok in enumerate(verdicts) if not ok]
        self.failed += len(wrong)
        if wrong and len(self.failures) < 20:
            if err is not None:
                why = f"{type(err).__name__}: {err}"
            elif op.batch:
                why = f"wrong verdicts at {wrong}"
            else:
                why = f"got {out!r:.200}"
            self.failures.append(f"{op.name}: {why}")
        return out, elapsed

    def passes(self, workload, ops, seconds, samples, scaled=None):
        """Run passes over ``ops`` until ``seconds`` have elapsed and every
        operation has run at least once; returns the number of operations run.
        ``samples`` gets each operation's times; ``scaled`` the same times at
        nominal CPU speed, divided by the mean slowdown of the calibrations
        just before, during and just after the operation, or of the reference
        processes just before and after it if each operation is a fresh
        process."""
        start = time.perf_counter()
        count = 0
        sampler = None
        speed, nominal = self.calibrate, CAL_NOMINAL_S
        if scaled is not None and workload.fresh_processes:
            speed, nominal = self.reference, REF_NOMINAL_S
        elif scaled is not None:
            sampler = Sampler()
        before = speed()
        while True:
            workload.before_pass()
            for op in ops:
                elapsed = self.run_op(op, sampler=sampler)[1]
                after = speed()
                samples.setdefault(op.name, []).append(elapsed)
                if scaled is not None:
                    around = [before, *(sampler.samples if sampler else ()), after]
                    if sampler is not None:
                        self.calibrations += sampler.samples
                    scaled.setdefault(op.name, []).append(
                        elapsed * nominal / statistics.mean(around))
                before = after
                count += 1
                if count >= len(ops) and time.perf_counter() - start >= seconds:
                    return count


def end_to_end(workload, runner, seconds):
    samples, scaled = {}, {}
    ops_run = runner.passes(workload, workload.ops, seconds, samples, scaled)
    per_op = [_median(s) for s in scaled.values()]
    tail_value, tail_pct, tail_beyond = tail(per_op)
    if workload.child_rss_kb:
        peak_kb = max(workload.child_rss_kb)  # the CLI processes a user runs
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": (sum(per_op), "s"),
        "verdict_p50_ms": (_median(per_op) * 1e3, "ms"),
        "verdict_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    raw_op = [_median(s) for s in samples.values()]
    detail = {"ops_run": ops_run, "ops_per_pass": len(per_op), "tail_percentile": tail_pct,
              "tail_values_beyond": tail_beyond, "samples_s": samples,
              "raw_wall_s": sum(raw_op), "raw_verdict_p50_ms": _median(raw_op) * 1e3,
              "raw_verdict_tail_ms": tail(raw_op)[0] * 1e3}
    return metrics, detail


def per_layer(workload_name, runner, seconds, seed, reference, limit):
    """One traced set-up and one traced pass, after untraced passes that warm
    the caches and give the untraced baseline for the overhead."""
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        workload = workloads.build(workload_name, seed, reference, limit)
    finally:
        tracer.active = False
        tracer.uninstall()
    workload.prepare_reference()
    ops = workload.inproc_ops or workload.ops

    base = {}
    runner.passes(workload, ops, seconds / 2, base)
    base_op = {name: _median(s) for name, s in base.items()}

    workload.before_pass()
    tracer.install()
    traced = {}
    outputs = {}
    try:
        for op in ops:
            outputs[op.name], traced[op.name] = runner.run_op(op, tracer)
    finally:
        tracer.uninstall()

    t = tracer
    layer = t.layers
    untraced_wall = sum(base_op.values())
    m = {}

    candidates = t.counters["search.candidates"]
    search_ops = [op for op in ops if op.candidates]
    hits = sum(len(outputs[op.name]) for op in search_ops if outputs[op.name] is not None)
    search_s = sum(base_op[op.name] for op in search_ops)
    m["search.candidates_scanned"] = (candidates, "count")
    m["search.hits"] = (hits, "count")
    m["search.hit_ratio"] = (hits / candidates if candidates else 0.0, "ratio")
    m["search.us_per_candidate"] = (search_s / candidates * 1e6 if candidates else 0.0, "us")

    for k in BRACKET_ARITIES:
        calls, ns = t.keyed.get(f"dgla.balavoine_bracket:a{k}", (0, 0))
        m[f"dgla.bracket_calls.a{k}"] = (calls, "count")
        m[f"dgla.bracket_s.a{k}"] = (ns / 1e9, "s")
    m["dgla.mc_checks"] = (t.calls("dgla.check_maurer_cartan")
                           + t.calls("dgla.mc_cochain_defects"), "count")
    m["dgla.self_s"] = (layer["dgla"].self_ns / 1e9, "s")

    for name in ("operators", "forms"):
        m[f"{name}.check_calls"] = (sum(s.calls for q, s in t.funcs.items()
                                        if q.startswith(f"{name}.check_")), "count")
        m[f"{name}.self_s"] = (layer[name].self_ns / 1e9, "s")
    m["twilled.self_s"] = (layer["twilled"].self_ns / 1e9, "s")

    m["linalg.matrix_builds"] = (t.calls("linalg.Matrix.__init__"), "count")
    m["linalg.mat_mul_calls"] = (t.calls("linalg.mat_mul"), "count")
    m["linalg.solve_calls"] = (t.calls("linalg.solve_linear"), "count")
    for name in ("linalg", "fields", "algebras", "pairs"):
        if name != "linalg":
            m[f"{name}.calls"] = (layer[name].calls, "count")
        m[f"{name}.self_s"] = (layer[name].self_ns / 1e9, "s")

    from leibnizkit import suites

    suite_out = [outputs[op.name] for op in ops if op.name in suites.SUITES]
    m["suites.checks_passed"] = (sum(r.passed for r in suite_out if r is not None), "count")
    for name in sorted(suites.SUITES):
        m[f"suites.{name}_s"] = (base_op.get(name, 0.0), "s")

    m["checks.run_check_calls"] = (t.calls("checks.run_check"), "count")
    m["checks.self_s"] = (layer["checks"].self_ns / 1e9, "s")
    m["io.parse_s"] = (t.incl_s("io.parse_spec"), "s")
    m["io.build_calls"] = (t.calls("io.SpecFile.build"), "count")
    m["io.build_s"] = (t.incl_s("io.SpecFile.build"), "s")
    m["catalog.load_s"] = (layer["catalog"].incl_ns / 1e9, "s")
    m["cli.import_s"] = (measure_cli_import(), "s")
    main_calls = t.calls("cli.main")
    m["cli.main_ms"] = (t.incl_s("cli.main") / main_calls * 1e3 if main_calls else 0.0, "ms")
    traced_wall = sum(traced.values())
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1 if untraced_wall else 0.0,
                                "ratio")

    # Exactness self-checks: a miscount is a failed operation.
    expected_candidates = sum(op.candidates for op in search_ops)
    checks = {"search.candidates_scanned == sum of space sizes":
              candidates == expected_candidates}
    if workload.name == "cli-check":
        checks["checks.run_check_calls == requests"] = (
            m["checks.run_check_calls"][0] == len(ops))
    for label, ok in checks.items():
        runner.attempted += 1
        if not ok:
            runner.failed += 1
            runner.failures.append(f"self-check failed: {label}")

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(trace_path, {"workload": workload.name, "seed": seed})
    detail = {"untraced_pass_s": untraced_wall, "traced_pass_s": traced_wall,
              "base_samples_s": base, "traced_samples_s": traced, "self_checks": checks,
              "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
              "trace_file": str(trace_path.relative_to(ROOT))}
    return m, detail


def run(workload_name: str, seed: int, seconds: float, trace: bool, reference_path=None,
        limit=None):
    """Run one workload; returns (result line dict, run record dict).
    ``reference_path`` and ``limit`` serve the smoke test."""
    reference = workloads.load_reference(reference_path or workloads.REFERENCE)
    # One CPU for this process and its children, so that the calibration
    # task measures the core that runs the timed work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner()
    started = time.perf_counter()
    if trace:
        metrics, detail = per_layer(workload_name, runner, seconds, seed, reference, limit)
    else:
        setup_s, setup_samples, setup_refs = measure_setup(workload_name, seed)
        t0 = time.perf_counter()
        workload = workloads.build(workload_name, seed, reference, limit)
        inproc_setup_s = time.perf_counter() - t0
        workload.prepare_reference()
        metrics, detail = end_to_end(workload, runner, seconds)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        detail.update({"raw_setup_s": _median(setup_samples), "setup_samples_s": setup_samples,
                       "setup_reference_s": setup_refs,
                       "inprocess_setup_s": inproc_setup_s,
                       "slowdown": runner.slowdown(), "calibrations_s": runner.calibrations,
                       "references_s": runner.references})
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "run_s": time.perf_counter() - started,
        "failed_frac": runner.failed / runner.attempted if runner.attempted else 0.0,
        "failures": runner.failures,
        **detail,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (used to time set-up)")
    args = parser.parse_args(argv)

    if not (SRC / "leibnizkit" / "__init__.py").is_file():
        print(f"error: no leibnizkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        workloads.build(args.workload, args.seed, workloads.load_reference())
        return 0

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {record['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for failure in record["failures"]:
        print(f"  failure: {failure}")
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
