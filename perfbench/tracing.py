"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of the rombit modules where the calling
module looks them up (``rombit.harness.distinct_orderings``,
``rombit.extraction.rng_for``, ...), so ``src/`` stays untouched.  Each call
records a span (name, start, end, parent) in flat arrays; spans are written
out once, when the run ends.  A span's self time is its duration minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

# (metric prefix, defining module, function, modules that look the name up).
# Several functions may share one prefix: they are one layer's entry points.
PATCHES = (
    ("core.rng_for", "core", "rng_for",
     ("core", "extraction", "guessing", "harness", "knapsack")),
    ("core.read_instances", "core", "read_instances", ("core", "cli")),
    ("extraction.bias_curve", "extraction", "bias_curve", ("extraction",)),
    ("extraction.empirical_bias", "extraction", "empirical_bias", ("extraction",)),
    ("guessing.empirical_ratio", "guessing", "empirical_ratio", ("guessing",)),
    ("guessing.guess_run", "guessing", "guess_run", ("guessing",)),
    ("knapsack.offline_opt_scaled", "knapsack", "offline_opt_scaled", ("knapsack",)),
    ("knapsack.rom", "knapsack", "rom_proportional", ("knapsack",)),
    ("knapsack.rom", "knapsack", "rom_proportional_tworbin", ("knapsack",)),
    ("knapsack.rom", "knapsack", "rom_general", ("knapsack",)),
    ("intervals.offline_opt_intervals", "intervals", "offline_opt_intervals", ("intervals",)),
    ("intervals.rom", "intervals", "rom_single_length", ("intervals",)),
    ("intervals.rom", "intervals", "rom_adaptive", ("intervals",)),
    ("throughput.offline_opt_throughput", "throughput", "offline_opt_throughput",
     ("throughput",)),
    ("throughput.rom_simulation", "throughput", "rom_simulation", ("throughput",)),
    ("throughput.is_normal", "throughput", "is_normal", ("throughput",)),
    ("harness.audit_instance", "harness", "audit_instance", ("harness",)),
    ("harness.run_order", "harness", "run_order", ("harness",)),
    ("harness.run_experiment", "harness", "run_experiment", ("harness",)),
)

# generators: one span per next(), so self time excludes the consumer's work
GENERATOR_PATCHES = (
    ("core.distinct_orderings", "core", "distinct_orderings",
     ("core", "extraction", "guessing", "harness")),
)

# names whose per-call durations are kept for percentiles
KEEP_DURATIONS = ("harness.audit_instance",)


class Tracer:
    """Spans and per-name aggregates of one traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []  # [span_id, child_ns] per open span
        self._restore = []
        self.origin = time.perf_counter_ns()
        self.reset_totals()

    def reset_totals(self):
        """Start a fresh set of aggregates; spans are kept."""
        self.calls = Counter()
        self.self_ns = Counter()
        self.incl_ns = Counter()
        self.counts = Counter()
        self.durations = {name: [] for name in KEEP_DURATIONS}

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(time.perf_counter_ns() - self.origin)
        self.span_end.append(0)
        frame = [sid, 0]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame):
        end = time.perf_counter_ns() - self.origin
        self._stack.pop()
        sid = frame[0]
        self.span_end[sid] = end
        dur = end - self.span_start[sid]
        self.self_ns[name] += dur - frame[1]
        self.incl_ns[name] += dur
        if self._stack:
            self._stack[-1][1] += dur
        return dur

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``."""
        nid = self._name_id(name)
        keep = self.durations.get(name) is not None

        def traced(*args, **kwargs):
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(name, frame)
                self.calls[name] += 1
                if keep:
                    self.durations[name].append(dur)
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        """Wrap a generator function; each yielded value counts as one order."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = self._open(nid)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, frame)
                self.counts[name + ".orders"] += 1
                yield value

        traced.__wrapped__ = fn
        return traced

    def patch_attr(self, module, attr, wrapper):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, modules):
        """Patch every traced function in ``modules`` (short name -> module)."""
        for table, generator in ((PATCHES, False), (GENERATOR_PATCHES, True)):
            for name, home, fn_name, lookups in table:
                original = getattr(modules[home], fn_name)
                if generator:
                    wrapper = self.wrap_generator(name, original)
                else:
                    wrapper = self.wrap(name, original, ON_RESULT.get(name))
                for short in lookups:
                    if getattr(modules[short], fn_name, None) is original:
                        self.patch_attr(modules[short], fn_name, wrapper)

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def write_spans(self, path):
        """Write every span as TSV: id, parent id, name, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid]}\t{self.span_end[sid]}\n"
                )


def _bias_counts(counts, args, kwargs, rep):
    counts["extraction.trials"] += rep.trials
    counts["extraction.no_bit"] += round(rep.no_bit * rep.trials)


ON_RESULT = {"extraction.empirical_bias": _bias_counts}

