"""Experiment orchestration: instance families, the arrival model, exact and
Monte Carlo ROM drivers, per-order inequality audits, and report assembly.

The arrival model lives here, once: ``_order_domain`` is the permuted
payload column of an instance, and ``_intervals_for``/``_jobs_for`` place
an order of it on the fixed release positions (realtime ROM).  Exact mode
enumerates its distinct orders (each stands for the same number of labeled
permutations) and runs the full pipeline per order; the extracted bit is a
deterministic function of the order, so no bias model enters the
computation.  Monte Carlo mode samples seeded permutations of the same
pipeline.  Both modes feed one reducer, ``_row``, the only walk over an
instance's orders; the audit (exact mode only) rides that walk, checking
each order's run against the problem's per-order inequalities.

Ratio conventions follow the per-problem literature: knapsack reports
E[ALG]/OPT (at most 1), string guessing and intervals report OPT/E[ALG],
and throughput reports the mean per-order |OPT|/|ALG| (at least 1).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction

from . import guessing, intervals, knapsack, throughput
from .core import (
    CapacityError,
    ENUMERATION_GUARD,
    InputError,
    distinct_orderings,
    make_instance,
    make_item,
    rng_for,
    split_seed,
    write_report,
)


def worker_count():
    """Worker processes from ``ROMBIT_WORKERS`` (default 1); must be a positive int."""
    text = os.environ.get("ROMBIT_WORKERS", "1").strip()
    if not text.isdecimal() or int(text) < 1:
        raise InputError(f"ROMBIT_WORKERS must be a positive integer, got {text!r}")
    return int(text)


def _map(fn, items):
    n = worker_count()
    if n > 1 and len(items) > 1:
        from multiprocessing import Pool

        with Pool(n) as pool:
            return pool.map(fn, items)
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# instance families
# ---------------------------------------------------------------------------


def _pick_n(params, rng):
    n = params.get("n", 6)
    if isinstance(n, (list, tuple)):
        return rng.choice(list(n))
    return int(n)


def _knapsack_items(problem, rng, params):
    n = _pick_n(params, rng)
    den = int(params.get("den", 20))
    family = params["family"]
    if family == "uniform":
        support_size = params.get("support")
        if support_size:
            pool = [rng.randint(1, den) for _ in range(int(support_size))]
            ws = [rng.choice(pool) for _ in range(n)]
        else:
            ws = [rng.randint(1, den) for _ in range(n)]
        weights = [Fraction(w, den) for w in ws]
        if problem == "knapsack_general":
            # draw (weight, value) pairs from a small pool so arrival orders
            # repeat items, the same way the proportional family does
            if support_size:
                pairs = [
                    (Fraction(w, den), Fraction(rng.randint(1, 3 * den), den))
                    for w in pool
                ]
                chosen = [rng.choice(pairs) for _ in range(n)]
            else:
                chosen = [
                    (w, Fraction(rng.randint(1, 3 * den), den)) for w in weights
                ]
            return [
                make_item(key=(v, w), payload={"weight": w, "value": v})
                for w, v in chosen
            ], {}
    elif family == "two_type":
        a = Fraction(params.get("alpha", Fraction(1, 2)))
        w0 = Fraction(params.get("w0", Fraction(1, 5)))
        w1 = Fraction(params.get("w1", Fraction(2, 5)))
        c0 = max(1, min(n - 1, int(a * n)))
        weights = [w0] * c0 + [w1] * (n - c0)
    elif family == "adversarial":
        eps = Fraction(params.get("epsilon", Fraction(1, 100)))
        weights = [eps / n] * (n - 1) + [Fraction(1)]
    else:
        raise InputError(f"unknown knapsack family {family!r}")
    items = []
    for w in weights:
        if problem == "knapsack_proportional":
            v = w
        else:
            v = Fraction(rng.randint(1, 3 * den), den)
        items.append(make_item(key=(v, w), payload={"weight": w, "value": v}))
    return items, {}


def _interval_items(rng, params):
    n = _pick_n(params, rng)
    variant = params.get("variant", "single")
    meta = {"variant": variant}
    if variant == "single":
        p = Fraction(params.get("length", 4))
        releases = sorted(Fraction(rng.randrange(0, int(3 * n))) for _ in range(n))
        pool = [Fraction(rng.randint(1, 9)) for _ in range(int(params.get("support", 3)))]
        payload = [(p, rng.choice(pool)) for _ in range(n)]
    elif variant == "monotone":
        # spread of lengths bounded by the minimum positive release gap, so
        # deadlines stay monotone under every payload permutation
        gaps = [rng.choice([0, 3, 4, 5]) for _ in range(n - 1)]
        releases = [Fraction(0)]
        for g in gaps:
            releases.append(releases[-1] + g)
        pool = [
            (Fraction(rng.choice([3, 4, 5, 6])), Fraction(rng.randint(1, 9)))
            for _ in range(int(params.get("support", 4)))
        ]
        payload = [rng.choice(pool) for _ in range(n)]
    elif variant == "c_benevolent":
        releases = sorted(Fraction(rng.randrange(0, int(4 * n))) for _ in range(n))
        pool = sorted({rng.choice([2, 3, 4, 5, 6]) for _ in range(int(params.get("support", 3)))})
        lengths = [Fraction(rng.choice(pool)) for _ in range(n)]
        payload = [(L, L * L) for L in lengths]
        meta["weight_table"] = [[Fraction(L), Fraction(L * L)] for L in pool]
    else:
        raise InputError(f"unknown interval variant {variant!r}")
    items = [
        make_item(
            key=(w, L),
            payload={"release": releases[i], "length": L, "weight": w},
        )
        for i, (L, w) in enumerate(payload)
    ]
    return items, meta


def _throughput_items(rng, params):
    n = _pick_n(params, rng)
    p = Fraction(params.get("proc", 10))
    releases = [Fraction(0)]
    for _ in range(n - 1):
        releases.append(releases[-1] + rng.choice([0, 2, 3, p // 2, p, p + 3]))
    pool = [0, p // 2, p, 2 * p, 4 * p]
    rng.shuffle(pool)
    support = pool[: rng.randint(2, int(params.get("support", 4)))]
    items = [
        make_item(
            key=(p, s),
            payload={"release": releases[i], "proc": p, "slack": Fraction(s)},
        )
        for i, s in enumerate(rng.choice(support) for _ in range(n))
    ]
    return items, {"proc": p}


def _string_items(rng, params):
    n = _pick_n(params, rng)
    family = params["family"]
    if family == "bernoulli":
        p1 = float(params.get("p_one", 0.6))
        bits = [1 if rng.random() < p1 else 0 for _ in range(n)]
    elif family == "two_type":
        a = Fraction(params.get("alpha", Fraction(1, 2)))
        c0 = max(0, min(n, int(a * n)))
        bits = [0] * c0 + [1] * (n - c0)
    else:
        raise InputError(f"unknown string family {family!r}")
    items = [make_item(key=(b,), payload={"bit": Fraction(b)}) for b in bits]
    return items, {}


def generate_instances(problem, family, params, count, seed):
    """Deterministic instance family; meta carries an id per instance."""
    out = []
    params = dict(params or {})
    params["family"] = family
    for i in range(count):
        rng = rng_for(seed, 7000 + i)
        if problem in ("knapsack_general", "knapsack_proportional"):
            items, meta = _knapsack_items(problem, rng, params)
        elif problem == "interval":
            items, meta = _interval_items(rng, params)
        elif problem == "throughput":
            items, meta = _throughput_items(rng, params)
        elif problem == "string_guess":
            items, meta = _string_items(rng, params)
        else:
            raise InputError(f"unknown problem {problem!r}")
        meta["id"] = f"{problem}-{family}-{seed}-{i:04d}"
        out.append(make_instance(problem, items, meta))
    return out


# ---------------------------------------------------------------------------
# scaled views of instances
# ---------------------------------------------------------------------------


def _common_scale(fracs):
    den = 1
    for f in fracs:
        den = den * f.denominator // math.gcd(den, f.denominator)
    return [int(f * den) for f in fracs], den


@dataclass
class ScaledKnapsack:
    pairs: list  # (weight, value) ints per item label
    cap: int
    value_den: int
    proportional: bool
    opt: int  # offline optimum in the scaled units; independent of the order


def scale_knapsack(instance):
    ws = [it.field_("weight") for it in instance.items]
    vs = [it.field_("value") for it in instance.items]
    wints, cap = knapsack.scale_weights(ws)
    proportional = instance.problem == "knapsack_proportional"
    if proportional:
        vints, vden = wints, cap
    else:
        vints, vden = knapsack.scale_values(vs)
    pairs = list(zip(wints, vints))
    return ScaledKnapsack(
        pairs=pairs, cap=cap, value_den=vden, proportional=proportional,
        opt=knapsack.offline_opt_scaled(pairs, cap),
    )


@dataclass
class ScaledIntervals:
    releases: list  # int per position
    payload: list   # (length, weight) ints per item label
    variant: str


def validate_weight_table(instance):
    """C-benevolent weight tables must be strictly increasing and convex,
    and every item's weight must match its length's table entry."""
    table = instance.meta_value("weight_table")
    if table is None:
        return
    pairs = [(Fraction(L) if not isinstance(L, Fraction) else L,
              Fraction(w) if not isinstance(w, Fraction) else w)
             for L, w in table]
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
    lookup = dict(pairs)
    for it in instance.items:
        L, w = it.field_("length"), it.field_("weight")
        if L not in lookup or lookup[L] != w:
            raise InputError(f"item weight {w} does not match the table at length {L}")


def scale_intervals(instance):
    if instance.meta_value("variant") == "c_benevolent":
        validate_weight_table(instance)
    rel = [it.field_("release") for it in instance.items]
    lens = [it.field_("length") for it in instance.items]
    ws = [it.field_("weight") for it in instance.items]
    times, _ = _common_scale(rel + lens)
    wints, _ = _common_scale(ws)
    n = instance.n
    return ScaledIntervals(
        releases=times[:n],
        payload=list(zip(times[n:], wints)),
        variant=instance.meta_value("variant", "single"),
    )


@dataclass
class ScaledThroughput:
    releases: list
    slacks: list  # int per item label
    proc: int


def scale_throughput(instance):
    rel = [it.field_("release") for it in instance.items]
    procs = [it.field_("proc") for it in instance.items]
    slacks = [it.field_("slack") for it in instance.items]
    if len(set(procs)) != 1:
        raise InputError("throughput instance requires one common processing time")
    times, _ = _common_scale(rel + slacks + [procs[0]])
    n = instance.n
    return ScaledThroughput(releases=times[:n], slacks=times[n:-1], proc=times[-1])


# ---------------------------------------------------------------------------
# per-arrival-order pipeline runs and inequality checks
# ---------------------------------------------------------------------------


def _intervals_for(scaled, order):
    return [
        intervals.Interval(release=scaled.releases[i], length=L, weight=w, label=i)
        for i, (L, w) in enumerate(order)
    ]


def _jobs_for(scaled, order):
    return [
        throughput.Job(release=scaled.releases[i], proc=scaled.proc, slack=s, label=i)
        for i, s in enumerate(order)
    ]


def _audit_proportional(s, order, ws, run, opt):
    """A1+A2 >= 7/5 OPT; A1 and A2 are replayed step by step here, as a
    cross-check of rom_proportional that shares none of its code, and the
    run must equal one of them."""
    order = tuple(ws)  # violations name the weight sequence
    violations = []
    a1 = knapsack.SubroutineA1(s.cap)
    a2 = knapsack.SubroutineA2(s.cap)
    for i, w in enumerate(ws):
        a1.feed(w, i)
        a2.feed(w, i)
        if a1.total() > s.cap or a2.total() > s.cap:
            violations.append(f"capacity exceeded at step {i} of {order}")
    if 5 * (a1.total() + a2.total()) < 7 * opt:
        violations.append(f"A1+A2 < 1.4*OPT on {order}")
    if run.value not in (a1.total(), a2.total()):
        violations.append(f"run differs from both subroutines on {order}")
    return violations


def _audit_tworbin(s, order, ws, run, opt):
    """The reported two-bin knapsack is a packing of this order: its value
    is its contents' weight within capacity, each content is the arrival at
    its index with no index twice, and only bit 0 revokes."""
    order = tuple(ws)
    violations = []
    if run.value != sum(w for w, _ in run.contents) or run.value > s.cap:
        violations.append(f"two-bin value {run.value} is not a packing within cap on {order}")
    indices = [i for _, i in run.contents]
    if len(set(indices)) != len(indices) or any(
        not 0 <= i < len(ws) or ws[i] != w for w, i in run.contents
    ):
        violations.append(f"two-bin contents differ from the arrivals on {order}")
    if run.revocations and run.bit != 0:
        violations.append(f"revocation without bit 0 on {order}")
    return violations


def _audit_general(s, order, items, run, opt):
    """GREEDY+MAX >= OPT."""
    g, _ = knapsack.greedy_density_run(items, s.cap)
    if g + max(v for _, v in items) < opt:
        return [f"GREEDY+MAX < OPT on {order}"]
    return []


def _audit_intervals(s, order, arr, run, opt):
    """Feasibility plus the covering observations: prefix optimality, the
    prefix/suffix relaxation, the slot-cover bound (single length) and
    branch-sum >= suffix OPT (adaptive)."""
    violations = []
    if s.variant == "single":
        branches = [run.selection.accepted]
    else:
        branches = [run.trace.a_accepted, run.trace.b_accepted, run.selection.accepted]
    anchor = run.anchor_index
    prefix_val = sum(iv.weight for iv in run.prefix_accepted)
    for br in branches:
        if not intervals.feasible_selection(br):
            violations.append(f"overlapping selection on {order}")
    if anchor is None:
        if run.selection.value != opt:
            violations.append(f"identical-input prefix not optimal on {order}")
        return violations
    pre = intervals.offline_opt_intervals(arr[:anchor])
    suf = intervals.offline_opt_intervals(arr[anchor:])
    if prefix_val != pre:
        violations.append(f"prefix != OPT(prefix) on {order}")
    if opt > pre + suf:
        violations.append(f"OPT > OPT(prefix)+OPT(suffix) on {order}")
    if s.variant == "single":
        cover = sum(w.weight for w in run.winners.values())
        if suf > cover:
            violations.append(f"slot cover misses OPT(suffix) on {order}")
    else:
        ab = sum(x.weight for x in run.trace.a_accepted) + sum(
            x.weight for x in run.trace.b_accepted
        )
        if ab < suf:
            violations.append(f"A+B < OPT(suffix) on {order}")
    return violations


def _audit_throughput(s, order, jobs, run, opt):
    """Charging bound, the factor-2 bound and normality."""
    violations = []
    nx, ny = len(run.x), len(run.y)
    if 6 * opt > 5 * (nx + ny):
        violations.append(f"|OPT| > 5/6(|X|+|Y|) on {order}")
    if nx and ny:
        if not (Fraction(1, 2) <= Fraction(nx, ny) <= 2):
            violations.append(f"factor-2 violated on {order}")
    elif max(nx, ny, 0) > 1:
        violations.append(f"factor-2 zero-denominator violated on {order}")
    for sched in (run.x, run.y):
        ok, why = throughput.is_normal(sched, jobs, s.proc)
        if not ok:
            violations.append(f"not normal on {order}: {why}")
    return violations


def run_order(instance_view, problem, order, variant=None, audit=False):
    """Run one arrival order; returns (alg_value, opt_value, violations).

    The values are Fractions.  With ``audit`` set, ``violations`` lists the
    failures of the problem's per-order inequality checks on this run;
    otherwise it is empty.
    """
    s = instance_view
    if problem == "knapsack_proportional":
        arrivals = [w for w, _ in order]
        if variant == "tworbin":
            run = knapsack.rom_proportional_tworbin(arrivals, s.cap)
            check = _audit_tworbin
        else:
            run = knapsack.rom_proportional(arrivals, s.cap)
            check = _audit_proportional
        alg, opt, unit = run.value, s.opt, s.cap
    elif problem == "knapsack_general":
        arrivals = list(order)
        run = knapsack.rom_general(arrivals, s.cap)
        alg, opt, unit, check = run.value, s.opt, s.value_den, _audit_general
    elif problem == "interval":
        arrivals = _intervals_for(s, order)
        if s.variant == "single":
            run = intervals.rom_single_length(arrivals)
        else:
            run = intervals.rom_adaptive(arrivals, s.variant)
        opt = intervals.offline_opt_intervals(arrivals)
        alg, unit, check = run.selection.value, 1, _audit_intervals
    elif problem == "throughput":
        arrivals = _jobs_for(s, order)
        run = throughput.rom_simulation(arrivals, s.proc)
        opt = throughput.offline_opt_throughput(arrivals, s.proc)
        alg, unit, check = len(run.chosen), 1, _audit_throughput
    elif problem == "string_guess":
        tr = guessing.guess_run(order)
        return Fraction(tr.correct), Fraction(len(order)), []
    else:
        raise InputError(f"unknown problem {problem!r}")
    violations = check(s, order, arrivals, run, opt) if audit else []
    return Fraction(alg, unit), Fraction(opt, unit), violations


def _order_domain(instance, scaled):
    """The permuted column of an instance: the values whose orders are the
    arrival orders.  Release times are not in it; ``_intervals_for`` and
    ``_jobs_for`` put each order back on the fixed release positions."""
    if instance.problem in ("knapsack_general", "knapsack_proportional"):
        return list(scaled.pairs)
    if instance.problem == "interval":
        return list(scaled.payload)
    if instance.problem == "throughput":
        return list(scaled.slacks)
    if instance.problem == "string_guess":
        return [int(it.key[0]) for it in instance.items]
    raise InputError(f"unknown problem {instance.problem!r}")


def scaled_view(instance):
    if instance.problem in ("knapsack_general", "knapsack_proportional"):
        return scale_knapsack(instance)
    if instance.problem == "interval":
        return scale_intervals(instance)
    if instance.problem == "throughput":
        return scale_throughput(instance)
    return None


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

RATIO_AT_MOST_ONE = ("knapsack_general", "knapsack_proportional")


@dataclass
class ExperimentConfig:
    problem: str
    instances: list
    variant: str = None
    exact: bool = True
    trials: int = 0
    seed: int = 0
    audit: bool = False

    def model(self):
        return "realtime_rom" if self.problem in ("interval", "throughput") else "rom"


@dataclass
class ExperimentReport:
    rows: list
    worst_ratio: Fraction
    mean_ratio: float
    violation_count: int

    def ok(self):
        return self.violation_count == 0


def _sampled_orders(domain, trials, seed):
    """Seeded uniform shuffles of the order domain, one per trial."""
    for t in range(trials):
        perm = list(range(len(domain)))
        rng_for(seed, t).shuffle(perm)
        yield [domain[j] for j in perm]


def _row(instance, config):
    """Reduce one instance over its arrival orders: every distinct ordering
    when exact, seeded shuffles when sampled.  This is the only walk over an
    instance's orders; with ``config.audit`` set, ``run_order`` also checks
    each order and the row collects the violations.

    Only running sums are kept; the sampled variance E[alg^2] - mean^2 is an
    exact Fraction, equal to the two-pass sum of squared deviations.
    """
    problem = config.problem
    if config.exact and instance.n > ENUMERATION_GUARD:
        raise CapacityError(
            f"{instance.meta_value('id', '?')}: n={instance.n} exceeds the "
            f"exact-mode enumeration guard {ENUMERATION_GUARD}"
        )
    view = scaled_view(instance)
    domain = _order_domain(instance, view)
    if config.exact:
        orders = distinct_orderings(domain)
    else:
        orders = _sampled_orders(domain, config.trials, config.seed)
    count = 0
    sum_alg = sum_alg2 = sum_opt = sum_ratio = Fraction(0)
    violations = []
    for order in orders:
        alg, opt, failed = run_order(view, problem, order, config.variant, config.audit)
        violations += failed
        count += 1
        sum_alg += alg
        sum_alg2 += alg * alg
        sum_opt += opt
        if problem == "throughput":
            sum_ratio += opt / alg if alg else Fraction(0)
    mean_alg = sum_alg / count
    mean_opt = sum_opt / count
    if problem in RATIO_AT_MOST_ONE:
        ratio = mean_alg / mean_opt if mean_opt else Fraction(1)
    elif problem == "throughput":
        ratio = sum_ratio / count
    else:
        ratio = mean_opt / mean_alg if mean_alg else Fraction(0)
    if config.exact:
        stderr = None
    else:
        var = sum_alg2 / count - mean_alg * mean_alg
        stderr = math.sqrt(float(var) / count)
    return {
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


def _run_one(args):
    instance, config = args
    row = _row(instance, config)
    row["instance_id"] = instance.meta_value("id", "")
    row["problem"] = config.problem
    row["model"] = config.model()
    row["seed"] = config.seed
    return row


def run_experiment(config):
    if not config.instances:
        raise InputError("no instances to run")
    if not config.exact and config.trials < 1:
        raise InputError(f"trials must be >= 1 when sampling, got {config.trials}")
    if config.audit and not config.exact:
        raise InputError("audit requires exact mode (--exact): it checks every order")
    rows = _map(_run_one, [(inst, config) for inst in config.instances])
    rows.sort(key=lambda r: r["instance_id"])
    ratios = [r["empirical_ratio"] for r in rows]
    at_most_one = config.problem in RATIO_AT_MOST_ONE
    worst = min(ratios) if at_most_one else max(ratios)
    mean = sum(float(r) for r in ratios) / len(ratios) if ratios else 0.0
    violations = sum(len(r["violations"]) for r in rows)
    return ExperimentReport(
        rows=rows, worst_ratio=worst, mean_ratio=mean, violation_count=violations
    )


def report_to_file(report, path, fmt="csv"):
    rows = []
    for r in report.rows:
        rows.append(
            {
                "instance_id": r["instance_id"],
                "problem": r["problem"],
                "model": r["model"],
                "trials": r["trials"],
                "seed": r["seed"],
                "mean_alg": r["mean_alg"],
                "opt": r["opt"],
                "empirical_ratio": r["empirical_ratio"],
                "stderr": r["stderr"],
            }
        )
    return write_report(rows, path, fmt)
