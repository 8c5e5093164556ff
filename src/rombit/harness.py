"""Experiment orchestration: instance families, the arrival model, exact and
Monte Carlo ROM drivers, per-order inequality audits, and report assembly.

Each problem's decisions are one ``Problem`` record of ``PROBLEM_TABLE``:
its instance families, its scaling, its per-order run and its ratio
convention.  The arrival model lives here, once: the scaling gives a view
whose ``column`` is the permuted payload column of an instance, and the
per-order run places an order of it on the fixed release positions
(realtime ROM).  Exact mode enumerates the column's distinct orders (each
stands for the same number of labeled permutations) and runs the full
pipeline per order; the extracted bit is a deterministic function of the
order, so no bias model enters the computation.  Monte Carlo mode samples
seeded permutations of the same pipeline.  Both modes feed one reducer,
``_row``, the only walk over an instance's orders; the audit (exact mode
only) rides that walk, checking each order's run record and OPT against the
problem's per-order inequalities without rerunning any algorithm.

The walk is integer-only: an instance already holds ints over one
denominator, ``Instance.den`` (``core.make_instance``), so a scaling only
picks the problem's columns, every run and check compares those ints, and
``_row`` keeps integer running sums that become Fractions once per row.
Scaling also checks, once, each instance rule that holds for every arrival
order or for none (value ranges; one common proc; each interval variant's
rule), so no algorithm checks it per order.

Ratio conventions follow the per-problem literature: knapsack reports
E[ALG]/OPT (at most 1), string guessing and intervals report OPT/E[ALG],
and throughput reports the mean per-order |OPT|/|ALG| (at least 1).
"""

from __future__ import annotations

import math
import os
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

from . import guessing, intervals, knapsack, throughput
from .core import (
    CapacityError,
    InputError,
    REALTIME_PROBLEMS,
    REPORT_COLUMNS,
    distinct_orderings,
    make_instance,
    rng_for,
    write_report,
)

# the variant of an interval instance whose meta names none
DEFAULT_INTERVAL_VARIANT = "single"
# the most items whose orders an exact row enumerates
ENUMERATION_GUARD = 10
# the largest pool that a family's "support" may ask to draw
SUPPORT_GUARD = 1000


def worker_count():
    """Worker processes from ``ROMBIT_WORKERS`` (default 1); must be a positive int."""
    text = os.environ.get("ROMBIT_WORKERS", "1").strip()
    if not text.isdecimal() or int(text) < 1:
        raise InputError(f"ROMBIT_WORKERS must be a positive integer, got {text!r}")
    return int(text)


def _starmap(fn, args):
    n = min(worker_count(), len(args))  # at most one process per task
    if n > 1:
        from multiprocessing import Pool

        with Pool(n) as pool:
            return pool.starmap(fn, args)
    return [fn(*a) for a in args]


# ---------------------------------------------------------------------------
# instance families
# ---------------------------------------------------------------------------


def _least(key, value, least, most=None):
    """The ``value`` of family parameter ``key``, which must be an int (not
    a bool) of at least ``least`` and, given ``most``, at most ``most``."""
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{key!r} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{key!r} must be at most {most}, got {value}")
    return value


def _rational(params, key, default, positive=False):
    """Family parameter ``key`` (``default`` when absent), taken from
    ``params``, as a Fraction; a bool is not a rational, and a ``positive``
    one must exceed 0."""
    value = params.pop(key, default)
    if isinstance(value, bool):
        raise ValueError(f"{key!r} must be a rational, got {value!r}")
    value = Fraction(value)
    if positive and value <= 0:
        raise ValueError(f"{key!r} must be positive, got {value}")
    return value


def _unit(params, key, default, closed):
    """``_rational`` that must lie in [0, 1] when ``closed``, else in (0, 1]."""
    value = _rational(params, key, default)
    if value > 1 or (value < 0 if closed else value <= 0):
        raise ValueError(f"{key!r} must lie in {'[' if closed else '('}0, 1], got {value}")
    return value


def _pick_n(params, rng):
    n = params.pop("n", 6)
    if isinstance(n, (list, tuple)):
        if not n:
            raise ValueError("'n' must not be an empty list")
        return rng.choice([_least("n", m, 1) for m in n])
    return _least("n", n, 1)


def _knapsack_payloads(rng, params, family, general):
    n = _pick_n(params, rng)
    den = _least("den", params.pop("den", 20), 1)
    pairs = None
    if family == "uniform":
        support_size = _least("support", params.pop("support", 0), 0, SUPPORT_GUARD)
        if support_size:
            pool = [rng.randint(1, den) for _ in range(support_size)]
            ws = [rng.choice(pool) for _ in range(n)]
        else:
            ws = [rng.randint(1, den) for _ in range(n)]
        weights = [[w, den] for w in ws]
        if general and support_size:
            # draw (weight, value) pairs from a small pool so arrival orders
            # repeat items, the same way the proportional family does
            pool = [([w, den], [rng.randint(1, 3 * den), den]) for w in pool]
            pairs = [rng.choice(pool) for _ in range(n)]
    elif family == "two_type":
        a = _unit(params, "alpha", Fraction(1, 2), closed=True)
        w0 = _unit(params, "w0", Fraction(1, 5), closed=False)
        w1 = _unit(params, "w1", Fraction(2, 5), closed=False)
        c0 = max(1, min(n - 1, int(a * n)))
        weights = [w0] * c0 + [w1] * (n - c0)
    else:  # adversarial: forced revocation, n-1 copies of eps/n and one unit item
        eps = _unit(params, "epsilon", Fraction(1, 100), closed=False)
        weights = [eps / n] * (n - 1) + [1]
    if pairs is None:
        pairs = [(w, [rng.randint(1, 3 * den), den] if general else w) for w in weights]
    return [{"value": v, "weight": w} for w, v in pairs], {}


def _interval_payloads(rng, params, family):
    n = _pick_n(params, rng)
    variant = params.pop("variant", DEFAULT_INTERVAL_VARIANT)
    meta = {"variant": variant}
    support = _least("support", params.pop("support", 4 if variant == "monotone" else 3), 1,
                     SUPPORT_GUARD)
    if variant == "single":
        p = _rational(params, "length", 4, positive=True)
        releases = sorted(rng.randrange(0, 3 * n) for _ in range(n))
        pool = [rng.randint(1, 9) for _ in range(support)]
        payload = [(p, rng.choice(pool)) for _ in range(n)]
    elif variant == "monotone":
        # spread of lengths bounded by the minimum positive release gap, so
        # deadlines stay monotone under every payload permutation
        gaps = [rng.choice([0, 3, 4, 5]) for _ in range(n - 1)]
        releases = [0]
        for g in gaps:
            releases.append(releases[-1] + g)
        pool = [(rng.choice([3, 4, 5, 6]), rng.randint(1, 9)) for _ in range(support)]
        payload = [rng.choice(pool) for _ in range(n)]
    elif variant == "c_benevolent":
        releases = sorted(rng.randrange(0, 4 * n) for _ in range(n))
        pool = sorted({rng.choice([2, 3, 4, 5, 6]) for _ in range(support)})
        lengths = [rng.choice(pool) for _ in range(n)]
        payload = [(L, L * L) for L in lengths]
        meta["weight_table"] = [[Fraction(L), Fraction(L * L)] for L in pool]
    else:
        raise InputError(f"unknown interval variant {variant!r}")
    return [{"weight": w, "length": L, "release": r}
            for r, (L, w) in zip(releases, payload)], meta


def _throughput_payloads(rng, params, family):
    n = _pick_n(params, rng)
    p = _rational(params, "proc", 10, positive=True)
    # releases and slacks as ints over proc's denominator d; p // 2 is the
    # floor of the rational, num // (2 d), so it is (num // (2 d)) * d over d
    num, d = p.numerator, p.denominator
    half = num // (2 * d) * d
    releases = [0]
    for _ in range(n - 1):
        releases.append(releases[-1] + rng.choice([0, 2 * d, 3 * d, half, num, num + 3 * d]))
    pool = [0, half, num, 2 * num, 4 * num]
    rng.shuffle(pool)
    support = pool[: rng.randint(2, _least("support", params.pop("support", 4), 2))]
    slacks = [rng.choice(support) for _ in range(n)]
    return [{"proc": [num, d], "slack": [s, d], "release": [r, d]}
            for r, s in zip(releases, slacks)], {"proc": p}


def _string_payloads(rng, params, family):
    n = _pick_n(params, rng)
    if family == "bernoulli":
        p1 = float(_unit(params, "p_one", 0.6, closed=True))
        bits = [1 if rng.random() < p1 else 0 for _ in range(n)]
    else:  # two_type
        a = _unit(params, "alpha", Fraction(1, 2), closed=True)
        c0 = max(0, min(n, int(a * n)))
        bits = [0] * c0 + [1] * (n - c0)
    return [{"bit": b} for b in bits], {}


def _check_n(spec, n, exact, where=""):
    """Reject ``n`` items past their row's guard, ``where`` first in the
    message: the enumeration guard when ``exact``, else the oracle's, if any."""
    guard, what = ((ENUMERATION_GUARD, "the exact-mode enumeration guard") if exact
                   else (spec.guard, "oracle guard"))
    if guard is not None and n > guard:
        raise CapacityError(f"{where}n={n} exceeds {what} {guard}")


def check_size(problem, family, params, exact):
    """Reject a family whose ``n`` (the largest, for a list) exceeds the
    guard of its rows (``_check_n``) before anything is drawn at that n, and
    after a draw at n = 1 reports any bad key; a bad ``n`` is generation's."""
    spec = _spec(problem, family)
    n = params.get("n", 6)
    ns = n if isinstance(n, (list, tuple)) else [n]
    if ns and all(type(m) is int and m >= 1 for m in ns):
        try:
            _check_n(spec, max(ns), exact)
        except CapacityError:
            generate_instances(problem, family, {**params, "n": 1}, 1, 0)
            raise


def generate_instances(problem, family, params, count, seed):
    """Deterministic instance family; meta carries an id per instance.  The
    family pops each parameter it reads from a per-instance copy of
    ``params``, so a key left over (``"family"`` among them) is bad input, as
    is a family the problem lacks or a value of the wrong type or range."""
    spec = _spec(problem, family)
    out = []
    for i in range(count):
        rng = rng_for(seed, 7000 + i)
        unread = dict(params or {})
        try:
            payloads, meta = spec.payloads(rng, unread, family)
        except InputError:
            raise
        except (ValueError, TypeError, IndexError, ArithmeticError) as e:
            # a parameter of the wrong type or range, e.g. {"n": "abc"}
            raise InputError(f"bad {problem} {family} parameters: {e}") from None
        if unread:
            raise InputError(f"unknown {problem} {family} parameter {min(unread)!r}")
        meta["id"] = f"{problem}-{family}-{seed}-{i:04d}"
        out.append(make_instance(problem, payloads, meta))
    return out


# ---------------------------------------------------------------------------
# scaled views of instances
# ---------------------------------------------------------------------------


@dataclass
class Scaled:
    """An instance in integer units: its arrival orders are the orders of
    ``column``, and every reported value is an int over ``unit``."""

    column: list  # the permuted payload, one entry per item label
    unit: int = 1
    releases: list = None  # realtime ROM: the fixed release int per position
    cap: int = None  # knapsack capacity
    opt: int = None  # knapsack offline optimum, the same for every order
    memo: dict = None  # knapsack step memo of an exact row, shared by its orders only
    proc: int = None  # throughput's common processing time
    variant: str = None  # interval variant


def scale_knapsack(instance, proportional):
    """Weights and values over the instance's ``den``, which is the unit
    capacity.  The column is the (weight, value) pairs, or the weights alone
    when ``proportional``, where every value must equal its weight."""
    ws, vs, cap = instance.columns["weight"], instance.columns["value"], instance.den
    if any(not 0 < w <= cap for w in ws):
        raise InputError("weights must lie in (0, 1]")
    if proportional:
        if vs != ws:
            raise InputError(f"{instance.meta_value('id', '?')}: a proportional "
                             "knapsack item's value must equal its weight")
    elif any(v <= 0 for v in vs):
        raise InputError("values must be positive")
    pairs = list(zip(ws, vs))
    return Scaled(column=ws if proportional else pairs, cap=cap, unit=cap,
                  opt=knapsack.offline_opt_scaled(pairs, cap))


def validate_weight_table(table, lens, ws, den):
    """C-benevolent weights: the weight ``ws[i]`` of each length ``lens[i]``,
    both ints over ``den``, is its entry in a table that increases strictly
    with length and is convex.  The table is the meta ``weight_table`` of
    rationals, taken over ``den`` too, or, with none, the instance's own
    (length, weight) pairs, so two weights at one length fail as a table
    that does not increase."""
    if table is None:
        table = sorted(set(zip(lens, ws)))
    else:
        table = [(L * den, w * den) for L, w in table]
    pairs = [(Fraction(L), Fraction(w)) for L, w in table]
    for (l0, w0), (l1, w1) in zip(pairs, pairs[1:]):
        if l1 <= l0 or w1 <= w0:
            raise InputError("weight table must increase strictly with length")
    if pairs and (pairs[0][0] <= 0 or pairs[0][1] <= 0):
        raise InputError("weight table lengths and weights must be positive")
    # convexity is anchored at the origin: a zero-length interval carries no
    # weight, which is what makes one long interval outweigh the short
    # intervals packed inside its slot
    slopes = [pairs[0][1] / pairs[0][0]]
    slopes += [(w1 - w0) / (l1 - l0) for (l0, w0), (l1, w1) in zip(pairs, pairs[1:])]
    for s0, s1 in zip(slopes, slopes[1:]):
        if s1 < s0:
            raise InputError("weight table must be convex in length")
    # an integral Fraction hashes and compares as its int
    lookup = dict(pairs)
    for L, w in zip(lens, ws):
        if lookup.get(L) != w:
            raise InputError(f"item weight {Fraction(w, den)} does not match the "
                             f"table at length {Fraction(L, den)}")


def scale_intervals(instance):
    """The instance in integer units, after checking once its variant's
    rule, which holds for every arrival order or for none: one length; a
    length spread within the smallest positive release gap, so that
    deadlines keep release order; or ``validate_weight_table``."""
    variant = instance.meta_value("variant", DEFAULT_INTERVAL_VARIANT)
    rints, lints, wints = (instance.columns[f] for f in ("release", "length", "weight"))
    den = instance.den
    if min(lints) <= 0:
        raise InputError(f"interval length must be positive, got {Fraction(min(lints), den)}")
    if min(wints) <= 0:
        raise InputError(f"interval weight must be positive, got {Fraction(min(wints), den)}")
    if variant == "single":
        if len(set(lints)) > 1:
            raise InputError("single-length instance has mixed lengths")
    elif variant == "monotone":
        gaps = [b - a for a, b in zip(rints, rints[1:]) if b > a]  # releases are sorted
        spread = max(lints) - min(lints)
        if gaps and spread > min(gaps):
            raise InputError(f"monotone constraint violated: length spread "
                             f"{Fraction(spread, den)} exceeds the smallest release gap "
                             f"{Fraction(min(gaps), den)}")
    elif variant == "c_benevolent":
        validate_weight_table(instance.meta_value("weight_table"), lints, wints, den)
    else:
        raise InputError(f"unknown interval variant {variant!r}")
    return Scaled(column=list(zip(lints, wints)), unit=den, releases=rints,
                  variant=variant)


def scale_throughput(instance):
    rel, procs, slacks = (instance.columns[f] for f in ("release", "proc", "slack"))
    den = instance.den
    if len(set(procs)) != 1:
        raise InputError("throughput instance requires one common processing time")
    if procs[0] <= 0:
        raise InputError(f"throughput proc must be positive, got {Fraction(procs[0], den)}")
    if min(slacks) < 0:
        raise InputError(f"throughput slack must be non-negative, got "
                         f"{Fraction(min(slacks), den)}")
    return Scaled(column=slacks, releases=rel, proc=procs[0])


def scale_bits(instance):
    """The bit column; every item must be exactly 0 or 1, so ``den`` is 1."""
    bits = instance.columns["bit"]
    if instance.den != 1 or not set(bits) <= {0, 1}:
        raise InputError("string guessing items must be bits")
    return Scaled(column=bits)


# ---------------------------------------------------------------------------
# per-arrival-order pipeline runs and inequality checks
# ---------------------------------------------------------------------------


def _audit_proportional(s, order, ws, run, opt):
    """The proportional run against the paper's per-order inequalities, read
    off its record: neither A1's nor A2's knapsack ever exceeded capacity
    (``run.peak``), A1+A2 (``one + zero``) >= 7/5 OPT, and the reported
    contents weigh the run's value."""
    violations = []
    if run.peak > s.cap:
        violations.append(f"capacity exceeded: peak {run.peak} > cap {s.cap} on {order}")
    if 5 * (run.one + run.zero) < 7 * opt:
        violations.append(f"A1+A2 < 1.4*OPT on {order}")
    weight = sum(w for w, _ in run.contents)
    if weight != run.value:
        violations.append(f"run differs from its contents' weight {weight} on {order}")
    return violations


def _audit_tworbin(s, order, ws, run, opt):
    """The reported two-bin knapsack is a packing of this order: its value
    is its contents' weight within capacity, each content is the arrival at
    its index with no index twice, and the ``revoked`` items are the order's
    first arrivals, all copies of the first, and together within capacity."""
    violations = []
    if run.value != sum(w for w, _ in run.contents) or run.value > s.cap:
        violations.append(f"two-bin value {run.value} is not a packing within cap on {order}")
    indices = [i for _, i in run.contents]
    if len(set(indices)) != len(indices) or any(
        not 0 <= i < len(ws) or ws[i] != w for w, i in run.contents
    ):
        violations.append(f"two-bin contents differ from the arrivals on {order}")
    head = ws[:run.revoked]
    if head != ws[:1] * run.revoked or sum(head) > s.cap:
        violations.append(f"revoked {run.revoked} are not first copies within cap on {order}")
    return violations


def _audit_general(s, order, items, run, opt):
    """GREEDY+MAX (``one + zero``) >= OPT, with GREEDY on the full order."""
    if run.one + run.zero < opt:
        return [f"GREEDY+MAX < OPT on {order}"]
    return []


def _audit_intervals(s, order, suffix_opt, run, opt):
    """Feasibility of both branches, then the covering observations read off
    the run record: prefix optimality, the prefix/suffix relaxation, and
    ``cover`` >= OPT(suffix) (the slot winners for single length, A+B for
    adaptive chains).  ``suffix_opt`` is the oracle's suffix optima of this
    order, so OPT(suffix) is read off it and only OPT(prefix) calls the
    oracle again."""
    violations = []
    for branch in (run.a, run.b):
        if not intervals.feasible_selection(s.releases, order, run.prefix + branch):
            violations.append(f"overlapping selection on {order}")
    anchor = run.anchor_index
    if anchor is None:
        if run.value != opt:
            violations.append(f"identical-input prefix not optimal on {order}")
        return violations
    pre = intervals.offline_opt_intervals(s.releases, order[:anchor])[0]
    suf = suffix_opt[anchor]
    if sum(order[ix][1] for ix in run.prefix) != pre:
        violations.append(f"prefix != OPT(prefix) on {order}")
    if opt > pre + suf:
        violations.append(f"OPT > OPT(prefix)+OPT(suffix) on {order}")
    if run.cover < suf:
        violations.append(f"cover < OPT(suffix) on {order}")
    return violations


def _audit_throughput(s, order, last, run, opt):
    """Charging bound, the factor-2 bound and normality of each distinct
    schedule: an order with no bit has one, ``run.x is run.y``."""
    violations = []
    nx, ny = len(run.x), len(run.y)
    if 6 * opt > 5 * (nx + ny):
        violations.append(f"|OPT| > 5/6(|X|+|Y|) on {order}")
    if nx and ny:
        if ny > 2 * nx or nx > 2 * ny:
            violations.append(f"factor-2 violated on {order}")
    elif max(nx, ny, 0) > 1:
        violations.append(f"factor-2 zero-denominator violated on {order}")
    tables = throughput.normal_tables(s.releases, last)  # shared by both replays
    for sched in (run.x,) if run.y is run.x else (run.x, run.y):
        ok, why = throughput.is_normal(sched, s.releases, last, s.proc, tables)
        if not ok:
            violations.append(f"not normal on {order}: {why}")
    return violations


def _audit_guess(s, order, bits, run, opt):
    """String guessing has no per-order inequality to check."""
    return []


def _run_proportional(s, order, variant):
    if variant == "tworbin":
        return knapsack.rom_proportional_tworbin(order, s.cap), s.opt, order, _audit_tworbin
    return knapsack.rom_proportional(order, s.cap, s.memo), s.opt, order, _audit_proportional


def _run_general(s, order, variant):
    return knapsack.rom_general(order, s.cap), s.opt, order, _audit_general


def _run_intervals(s, order, variant):
    if s.variant == "single":
        run = intervals.rom_single_length(s.releases, order)
    else:
        run = intervals.rom_adaptive(s.releases, order, s.variant)
    suffix_opt = intervals.offline_opt_intervals(s.releases, order)
    return run, suffix_opt[0], suffix_opt, _audit_intervals


def _run_throughput(s, order, variant):
    last = [r + x for r, x in zip(s.releases, order)]
    run = throughput.rom_simulation(s.releases, last, s.proc)
    opt = throughput.offline_opt_throughput(s.releases, last, s.proc)
    return run, opt, last, _audit_throughput


def _run_guess(s, order, variant):
    return guessing.guess_run(order), len(order), order, _audit_guess


@dataclass(frozen=True)
class Problem:
    """Every per-problem decision of the harness.  ``run(view, order,
    variant)`` places one arrival order on the fixed release positions, if
    any, runs it and returns (run, opt, what the check reads besides the
    view, order and run, audit check); the run is an ``extraction.Run``.
    The functions call the application modules through their attributes at
    call time, so a patched or traced name is the one that runs."""

    families: tuple  # the family names that ``payloads`` builds
    payloads: Callable  # (rng, params, family) -> (item payloads, meta) of one instance
    scale: Callable  # instance -> Scaled view
    run: Callable
    ratio: str  # "alg/opt" (at most 1), "opt/alg", or "mean opt/alg" over orders
    guard: int = None  # the most items the offline oracle takes, if bounded
    variants: tuple = ()  # the algorithm variants ``run`` takes besides None


_KNAPSACK_FAMILIES = ("uniform", "two_type", "adversarial")

PROBLEM_TABLE = {
    "string_guess": Problem(
        ("bernoulli", "two_type"), _string_payloads, scale_bits, _run_guess, "opt/alg"),
    "knapsack_general": Problem(
        _KNAPSACK_FAMILIES, partial(_knapsack_payloads, general=True),
        partial(scale_knapsack, proportional=False), _run_general, "alg/opt",
        knapsack.OPT_GUARD),
    "knapsack_proportional": Problem(
        _KNAPSACK_FAMILIES, partial(_knapsack_payloads, general=False),
        partial(scale_knapsack, proportional=True), _run_proportional, "alg/opt",
        knapsack.OPT_GUARD, ("tworbin",)),
    "interval": Problem(
        ("uniform",), _interval_payloads, scale_intervals, _run_intervals, "opt/alg"),
    "throughput": Problem(
        ("uniform",), _throughput_payloads, scale_throughput, _run_throughput, "mean opt/alg",
        throughput.OPT_GUARD),
}


def _spec(problem, family=...):
    """The problem's record; given a ``family`` (None too), once it is one of
    its own."""
    if problem not in PROBLEM_TABLE:
        raise InputError(f"unknown problem {problem!r}")
    spec = PROBLEM_TABLE[problem]
    if family is not ... and family not in spec.families:
        raise InputError(f"unknown {problem} family {family!r}; "
                         f"expected one of {', '.join(spec.families)}")
    return spec


def run_order(instance_view, problem, order, variant=None, audit=False):
    """Run one arrival order; returns (alg, opt, violations).

    ``alg`` is the run's committed ``value``, for every problem.  ``alg``
    and ``opt`` are ints in the instance's scaled units, so the values are
    ``alg/unit`` and ``opt/unit`` with the view's ``unit``; no Fraction is
    built per order.  With ``audit`` set, ``violations`` lists
    the failures of the problem's per-order inequality checks on this run;
    otherwise it is empty.
    """
    s = instance_view
    run, opt, reads, check = PROBLEM_TABLE[problem].run(s, order, variant)
    violations = check(s, order, reads, run, opt) if audit else []
    return run.value, opt, violations


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    problem: str
    instances: list
    variant: str = None
    exact: bool = True
    trials: int = 0
    seed: int = 0
    audit: bool = False


@dataclass
class ExperimentReport:
    rows: list
    worst_ratio: Fraction
    mean_ratio: float
    violation_count: int


def _sampled_orders(domain, trials, seed):
    """Seeded uniform shuffles of the order domain, one per trial."""
    for t in range(trials):
        perm = list(range(len(domain)))
        rng_for(seed, t).shuffle(perm)
        yield [domain[j] for j in perm]


def _row(instance, config):
    """The report row of one instance, reduced over its arrival orders:
    every distinct ordering when exact, seeded shuffles when sampled.  This
    is the only walk over an instance's orders; with ``config.audit`` set,
    ``run_order`` also checks each order and the row collects the
    violations.

    Only integer running sums in the scaled units are kept; the means and
    the sampled variance E[alg^2] - mean^2 become exact Fractions once, at
    the end, equal to the two-pass sum of squared deviations.  The
    per-order ratio mean counts each (opt, alg) pair and sums one Fraction
    per distinct pair.
    """
    problem = config.problem
    spec = PROBLEM_TABLE[problem]
    if config.variant is not None and config.variant not in spec.variants:
        raise InputError(f"unknown {problem} variant {config.variant!r}")
    _check_n(spec, instance.n, config.exact, f"{instance.meta_value('id', '?')}: ")
    view = spec.scale(instance)
    if config.exact:
        orders = distinct_orderings(view.column)
        view.memo = {}  # bounded by the enumeration guard; sampled orders store no step
    else:
        orders = _sampled_orders(view.column, config.trials, config.seed)
    per_order = spec.ratio == "mean opt/alg"
    count = sum_alg = sum_alg2 = sum_opt = 0
    pair_counts = Counter()
    violations = []
    for order in orders:
        alg, opt, failed = run_order(view, problem, order, config.variant, config.audit)
        violations += failed
        count += 1
        sum_alg += alg
        sum_alg2 += alg * alg
        sum_opt += opt
        if per_order:
            pair_counts[opt, alg] += 1
    unit = view.unit
    mean_alg = Fraction(sum_alg, count * unit)
    mean_opt = Fraction(sum_opt, count * unit)
    if spec.ratio == "alg/opt":
        ratio = mean_alg / mean_opt if mean_opt else Fraction(1)
    elif per_order:
        # an order with ALG = 0 adds 0, as OPT/ALG is taken to be there
        ratio = sum((Fraction(k * opt, alg) for (opt, alg), k in pair_counts.items() if alg),
                    Fraction(0)) / count
    elif mean_alg:
        ratio = mean_opt / mean_alg
    else:
        raise InputError(f"{instance.meta_value('id', '?')}: E[ALG] is 0, so "
                         "OPT/E[ALG] is unbounded")
    if config.exact:
        stderr = None
    else:
        var = Fraction(sum_alg2, count * unit * unit) - mean_alg * mean_alg
        stderr = math.sqrt(float(var) / count)
    return {
        "instance_id": instance.meta_value("id", ""),
        "problem": problem,
        "model": "realtime_rom" if problem in REALTIME_PROBLEMS else "rom",
        "seed": config.seed,
        "mean_alg": mean_alg,
        "opt": mean_opt,
        "empirical_ratio": ratio,
        "stderr": stderr,
        "orders": count,
        "trials": "exact" if config.exact else config.trials,
        "violations": violations,
    }


def audit_instance(instance, variant=None):
    """Every distinct arrival order of ``instance`` through its algorithm and
    per-order checks; returns {"orders": count, "violations": [...]}."""
    config = ExperimentConfig(
        problem=instance.problem, instances=[instance], variant=variant, audit=True
    )
    row = _row(instance, config)
    return {"orders": row["orders"], "violations": row["violations"]}


def run_experiment(config):
    spec = _spec(config.problem)
    if not config.instances:
        raise InputError("no instances to run")
    if not config.exact and config.trials < 1:
        raise InputError(f"trials must be >= 1 when sampling, got {config.trials}")
    if config.audit and not config.exact:
        raise InputError("audit requires exact mode (--exact): it checks every order")
    task = replace(config, instances=[])  # so no task pickles the whole list
    rows = _starmap(_row, [(inst, task) for inst in config.instances])
    rows.sort(key=lambda r: r["instance_id"])
    ratios = [r["empirical_ratio"] for r in rows]
    worst = min(ratios) if spec.ratio == "alg/opt" else max(ratios)
    mean = sum(float(r) for r in ratios) / len(ratios) if ratios else 0.0
    violations = sum(len(r["violations"]) for r in rows)
    return ExperimentReport(
        rows=rows, worst_ratio=worst, mean_ratio=mean, violation_count=violations
    )


def report_to_file(report, path, fmt="csv"):
    rows = [{c: r[c] for c in REPORT_COLUMNS} for r in report.rows]
    return write_report(rows, path, fmt)
