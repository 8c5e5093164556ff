"""rombit benchmark: run README CLI commands in-process and measure them.

    python3 perfbench/run.py --workload stream_mc --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, with ``ROMBIT_WORKERS=1``.  Each run sets up its inputs several
times (a fresh import of ``rombit`` plus instance generation) and reports
the median as ``setup_s``.  It then runs passes over the workload's input
sets until ``--seconds`` have elapsed, checking every command's output, and
reports medians over the passes.  Times are given in seconds at the
reference speed (see ``Clock``); the measured seconds are printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the first input set (at least two of each),
reports the per-layer metrics of the traced passes, and checks that every
per-layer count repeats exactly between them.  Both print one
``metric <name> <value> <unit>`` line per metric and, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
result file with the run manifest goes to ``perfbench/out/``; the traced
run also writes its spans there.

Exit status: 0 when a result was printed (``correct`` says whether every
check held), 2 when the package cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback

import checks
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
MODULES = ("core", "extraction", "guessing", "knapsack", "intervals", "throughput",
           "harness", "cli")
SETUP_REPS = 5
REFERENCE_ITERATIONS = 3000
# median time of reference_work() on the machine the benchmark was defined
# on (2 vCPUs, Python 3.11.7); normalized times read as seconds at that speed
REFERENCE_S = 0.030

END_TO_END = {"setup_s": "s", "wall_s": "s", "orders_per_s": "1/s", "peak_rss_mb": "MB"}
# printed and recorded, not gated: the rates read 0 on some workload, and
# failures are gated through ``correct`` and ``failed``
EXTRA = {"trials_per_s": "1/s", "guess_bits_per_s": "1/s", "failed_frac": "ratio",
         "setup_raw_s": "s", "wall_raw_s": "s", "reference_s": "s"}

SELF_TIMED = (
    "core.rng_for", "core.distinct_orderings", "core.read_instances",
    "extraction.bias_curve", "extraction.empirical_bias",
    "guessing.empirical_ratio", "guessing.guess_run",
    "knapsack.offline_opt_scaled", "knapsack.rom",
    "intervals.offline_opt_intervals", "intervals.rom",
    "throughput.offline_opt_throughput", "throughput.rom_simulation", "throughput.is_normal",
    "harness.audit_instance", "harness.run_order", "harness.run_experiment", "cli.main",
)
CALL_COUNTED = (
    "core.rng_for", "extraction.empirical_bias", "guessing.guess_run",
    "knapsack.offline_opt_scaled", "knapsack.rom",
    "intervals.offline_opt_intervals", "intervals.rom",
    "throughput.offline_opt_throughput", "throughput.rom_simulation", "throughput.is_normal",
    "harness.run_order", "harness.audit_instance",
)
COUNTS = ("core.distinct_orderings.orders", "extraction.trials", "extraction.no_bit")
PER_LAYER = {
    **{f"{n}.calls": "count" for n in CALL_COUNTED},
    **{n: "count" for n in COUNTS},
    **{f"{n}.self_s": "s" for n in SELF_TIMED},
    "harness.generate_instances.self_s": "s",
    "extraction.ns_per_trial": "ns",
    "knapsack.opt_calls_per_instance": "ratio",
    "harness.audit_instance.p50_ms": "ms",
    "harness.audit_instance.p99_ms": "ms",
    "trace.overhead": "ratio",
}


def import_rombit():
    """Import rombit afresh from ``src/``; returns short name -> module."""
    for name in [m for m in sys.modules if m == "rombit" or m.startswith("rombit.")]:
        del sys.modules[name]
    importlib.import_module("rombit.cli")
    mods = {short: sys.modules["rombit." + short] for short in MODULES}
    if not os.path.abspath(mods["cli"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"rombit was imported from {mods['cli'].__file__}, not {SRC}")
    return mods


def setup(workload, seed, scale, workdir, tracer=None):
    """Fresh import plus input generation; returns (seconds, modules, input sets)."""
    t0 = time.perf_counter()
    mods = import_rombit()
    harness = mods["harness"]
    if tracer is not None:
        tracer.patch_attr(harness, "generate_instances",
                          tracer.wrap("harness.generate_instances", harness.generate_instances))
    try:
        sets = workloads.build(workload, seed, scale, workdir, harness, mods["core"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0, mods, sets


def reference_work():
    """Fixed work of the benchmark's own: seeding and drawing from Mersenne
    Twister generators in a Python loop.  Of the candidates tried (rational
    arithmetic, integer arithmetic, dict and list churn), its speed tracked
    the host's drift best on all three workloads."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        rng = random.Random(i * 2654435761)
        total += rng.randrange(1000) + rng.randrange(999)
    return total


def reference_seconds():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Clock:
    """Converts measured seconds to seconds at the reference speed.

    On a shared host the speed of a core drifts by tens of percent within
    seconds, which no median over one run removes.  The reference work is
    timed before, between and after the commands of a pass, and the pass's
    times are scaled by REFERENCE_S over the median of those samples.  The
    reference work is the benchmark's own code, so a change to rombit moves
    the measurement and not the scale.
    """

    def __init__(self):
        self.references = [reference_seconds()]

    def sample(self):
        self.references.append(reference_seconds())

    def scale_since(self, start):
        """REFERENCE_S over the median of the samples from index ``start`` on."""
        return REFERENCE_S / statistics.median(self.references[start:])


def execute(main, cmd, golden):
    """Run one command; returns (seconds, problems, output fingerprint)."""
    if cmd.report and os.path.exists(cmd.report):
        os.remove(cmd.report)
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(cmd.argv))
    except SystemExit as e:
        rc = e.code
    except Exception:  # a crashing command is a failed command, not a crashed run
        rc = "exception: " + traceback.format_exc(limit=-1).strip()
    dt = time.perf_counter() - t0
    report = None
    if cmd.report and os.path.exists(cmd.report):
        with open(cmd.report, "rb") as fh:
            report = fh.read()
    stdout = out.getvalue()
    problems = checks.check(cmd, rc, stdout, report, golden)
    fingerprint = checks.digest(stdout.encode() + b"\0" + (report or b""))
    return dt, problems, fingerprint


class Pass:
    """Executes passes over the input sets and collects their verdicts."""

    def __init__(self, sets, golden, clock):
        self.sets = sets
        self.golden = golden
        self.clock = clock
        self.fingerprints = {}
        self.attempted = 0
        self.failures = []

    def run(self, main, index):
        """Run input set ``index`` modulo their number; returns command name ->
        (seconds, seconds at reference speed)."""
        which = index % len(self.sets)
        start = len(self.clock.references) - 1
        raw = {}
        for cmd in self.sets[which]:
            dt, problems, fp = execute(main, cmd, self.golden)
            self.clock.sample()
            raw[cmd.name] = dt
            if self.fingerprints.setdefault((which, cmd.name), fp) != fp:
                problems.append("output differs from an earlier pass on the same inputs")
            self.attempted += 1
            if problems:
                self.failures.append({"set": which, "command": cmd.name,
                                      "problems": problems[:5]})
        scale = self.clock.scale_since(start)
        return {name: (dt, dt * scale) for name, dt in raw.items()}


def pass_seconds(times, which=1, names=None):
    return sum(t[which] for name, t in times.items() if names is None or name in names)


def timed_run(args, workdir, golden):
    clock = Clock()
    raw_setups = []
    for _ in range(SETUP_REPS):
        dt, mods, sets = setup(args.workload, args.seed, args.scale, workdir)
        clock.sample()
        raw_setups.append(dt)
    scale = clock.scale_since(0)
    setups = [(dt, dt * scale) for dt in raw_setups]
    runner = Pass(sets, golden, clock)
    main = mods["cli"].main
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < args.seconds:
        passes.append(runner.run(main, len(passes)))
    orders = [sum(c.orders for c in sets[i % len(sets)]) for i in range(len(passes))]
    cmds = sets[0]

    def median_pass(kind=None, which=1):
        names = None if kind is None else {c.name for c in cmds if c.kind == kind}
        return statistics.median(pass_seconds(t, which, names) for t in passes)

    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "wall_s": median_pass(),
        "orders_per_s": statistics.median(o / pass_seconds(t) for o, t in zip(orders, passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"failed_frac": len(runner.failures) / runner.attempted,
             "setup_raw_s": statistics.median(dt for dt, _ in setups),
             "wall_raw_s": median_pass(which=0),
             "reference_s": statistics.median(clock.references)}
    if args.workload == "stream_mc":
        extra["trials_per_s"] = sum(c.bias_trials for c in cmds) / median_pass("bias")
        extra["guess_bits_per_s"] = sum(c.guess_bits for c in cmds) / median_pass("guess")
    details = {"passes": len(passes), "pass_seconds": [pass_seconds(t) for t in passes],
               "pass_raw_seconds": [pass_seconds(t, 0) for t in passes],
               "pass_orders": orders,
               "command_seconds": {c.name: [t[c.name][1] for t in passes] for c in cmds},
               "setup_seconds": [s for _, s in setups],
               "references": clock.references}
    return sets, runner, metrics, extra, details


def layer_values(tracer, cmds):
    """Per-layer metrics of the pass the tracer has just recorded."""
    vals = {f"{n}.calls": tracer.calls[n] for n in CALL_COUNTED}
    vals.update({n: tracer.counts[n] for n in COUNTS})
    vals.update({f"{n}.self_s": tracer.self_ns[n] / 1e9 for n in SELF_TIMED})
    trials = tracer.counts["extraction.trials"]
    vals["extraction.ns_per_trial"] = (
        tracer.incl_ns["extraction.empirical_bias"] / trials if trials else 0.0)
    knap = sum(c.expected.get("knapsack_instances", 0) for c in cmds)
    vals["knapsack.opt_calls_per_instance"] = (
        tracer.calls["knapsack.offline_opt_scaled"] / knap if knap else 0.0)
    return vals


def percentile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] / 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] / 1e6


def traced_run(args, workdir, golden):
    tracer = Tracer()
    gen_self = []
    for _ in range(SETUP_REPS):
        tracer.reset_totals()
        _, mods, sets = setup(args.workload, args.seed, args.scale, workdir, tracer)
        gen_self.append(tracer.self_ns["harness.generate_instances"] / 1e9)
    # every traced pass runs the first input set, so its counts must repeat
    runner = Pass(sets[:1], golden, Clock())
    main = mods["cli"].main
    plain, traced, rounds, audit_durations = [], [], [], []
    t_start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t_start < args.seconds:
        plain.append(pass_seconds(runner.run(main, 0)))
        tracer.reset_totals()
        tracer.install(mods)
        try:
            traced.append(pass_seconds(runner.run(tracer.wrap("cli.main", main), 0)))
        finally:
            tracer.uninstall()
        rounds.append(layer_values(tracer, sets[0]))
        audit_durations += tracer.durations["harness.audit_instance"]

    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in rounds[0]:
            values = [r[name] for r in rounds]
            metrics[name] = values[0] if unit == "count" else statistics.median(values)
    metrics["harness.generate_instances.self_s"] = statistics.median(gen_self)
    metrics["harness.audit_instance.p50_ms"] = percentile_ms(audit_durations, 50)
    metrics["harness.audit_instance.p99_ms"] = percentile_ms(audit_durations, 99)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    metrics = {name: metrics[name] for name in PER_LAYER}

    problems = [
        f"{name} differs between traced passes: {[r[name] for r in rounds]}"
        for name, unit in PER_LAYER.items()
        if unit == "count" and len({r[name] for r in rounds}) != 1
    ]
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{args.workload}.tsv")
    tracer.write_spans(spans_path)
    details = {"passes": len(traced), "plain_seconds": plain, "traced_seconds": traced,
               "spans": len(tracer.span_name), "spans_file": os.path.relpath(spans_path, ROOT),
               "determinism_problems": problems}
    return sets[:1], runner, metrics, {}, details, problems


def git_sha():
    """HEAD commit read from ``.git`` without running git; None outside a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, which identifies the code outside git too."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "rombit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def manifest(args, sets):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "ROMBIT_WORKERS": os.environ.get("ROMBIT_WORKERS"),
        "workload": args.workload,
        "seed": args.seed,
        "golden_slots": ([c.golden_key.split("/")[1] for c in (s[0] for s in sets)]
                         if args.workload == "exact_audit" else None),
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "commands": [{"set": j, "name": c.name, "argv": c.argv, "orders": c.orders}
                     for j, cmds in enumerate(sets) for c in cmds],
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    return ap.parse_args(argv)


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "rombit", "__init__.py")):
        sys.stderr.write(f"error: package sources not found under {SRC}\n")
        return 2
    os.environ["ROMBIT_WORKERS"] = "1"
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, "work", args.workload)
    os.makedirs(workdir, exist_ok=True)
    golden = load_golden()
    try:
        if args.trace:
            sets, runner, metrics, extra, details, problems = traced_run(args, workdir, golden)
            units = PER_LAYER
        else:
            sets, runner, metrics, extra, details = timed_run(args, workdir, golden)
            problems = []
            units = END_TO_END
    except ImportError as e:
        sys.stderr.write(f"error: cannot import rombit: {e}\n")
        return 2

    correct = not runner.failures and not problems
    print(f"workload={args.workload} seed={args.seed} scale={args.scale} trace={args.trace} "
          f"passes={details['passes']} attempted={runner.attempted} "
          f"failed={len(runner.failures)}")
    for failure in runner.failures[:10]:
        print(f"FAILED {failure['command']}: {'; '.join(failure['problems'])}")
    for problem in problems:
        print(f"FAILED determinism: {problem}")
    for name, value in {**metrics, **extra}.items():
        print(f"metric {name} {value!r} {units.get(name) or EXTRA[name]}")

    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {"result": result,
              "extra": {name: {"value": v, "unit": EXTRA[name]} for name, v in extra.items()},
              "details": details, "failures": runner.failures,
              "manifest": manifest(args, sets)}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
