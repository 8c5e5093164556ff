"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; pytest failure
output marks the FAIL case.  Tolerances are pinned here, not configurable.
"""

import math
import subprocess
import sys
from fractions import Fraction

from rombit import extraction as ex
from rombit import harness as hz
from rombit.core import make_instance
from rombit.knapsack import (
    exact_revocation_tail,
    revocation_experiment,
    rom_proportional_tworbin,
)

SQRT2M1 = math.sqrt(2) - 1
SIZES = [3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8]
BIAS_N = 10**5
BIAS_TRIALS = 10**5
EXACT_N = 10**4


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


# -- criterion 1: bias constants ------------------------------------------


def test_c1_process1_alpha_half():
    rep = ex.empirical_bias(
        ex.bias_family("process1", Fraction(1, 2), BIAS_N)[1], "process1", BIAS_TRIALS, 101
    )
    err = abs(rep.prob_one - 2 / 3)
    exact = ex.exact_bias(ex.bias_family("process1", Fraction(1, 2), EXACT_N)[1], "process1")
    exact_err = abs(exact.prob_one - Fraction(2, 3))
    _report("1a process1 alpha=1/2 -> 2/3 +-0.01, exact at n=1e4 +-1e-4",
            err <= 0.01 and exact_err <= 1e-4, f"err={err:.5f} exact_err={float(exact_err):.1e}")


def test_c1_process2_unbiased():
    rep = ex.empirical_bias(
        ex.bias_family("distinct_unbiased", None, BIAS_N)[1], "distinct_unbiased", BIAS_TRIALS,
        102
    )
    err = abs(rep.prob_one -  0.5)
    ok = err <= 0.005
    for n in range(2, 9):
        exact = ex.exact_bias(ex.bias_family("distinct_unbiased", None, n)[1],
                              "distinct_unbiased")
        ok = ok and exact.prob_one == Fraction(1, 2)
    _report("1b process2 -> 0.5 +-0.005 and exact 1/2 for n<=8", ok, f"err={err:.5f}")


def test_c1_combine_worst_case_and_grid():
    r = Fraction(4142, 10000)
    rep = ex.empirical_bias(
        ex.bias_family("combine", r, BIAS_N)[1], "combine", BIAS_TRIALS, 103,
    )
    err = abs(rep.prob_one - (2 - math.sqrt(2)))
    ok = err <= 0.01
    rows = ex.bias_curve(
        "combine", [Fraction(k, 10) for k in range(1, 10)], BIAS_N, BIAS_TRIALS, 104
    )
    worst = max(abs(row["empirical"] - float(row["predicted"])) for row in rows)
    ok = ok and worst <= 0.01
    for row in rows:
        lo = 0.5 - 3 * row["stderr"]
        hi = (2 - math.sqrt(2)) + 3 * row["stderr"] + 0.01
        ok = ok and lo <= row["empirical"] <= hi
    exact_worst = 0
    for param in (r, *(Fraction(k, 10) for k in range(1, 10))):
        predicted, profile = ex.bias_family("combine", param, EXACT_N)
        exact_worst = max(exact_worst, abs(ex.exact_bias(profile, "combine").prob_one - predicted))
    ok = ok and exact_worst <= 1e-4
    _report(
        "1c combine r=sqrt(2)-1 -> 2-sqrt(2) +-0.01; grid within 0.01; exact at n=1e4 +-1e-4",
        ok, f"err={err:.5f} grid_worst={worst:.5f} exact_worst={float(exact_worst):.1e}",
    )


# -- criterion 2: exact conditional symmetry -------------------------------


def _reference_multisets():
    out = []
    for problem, family, params, count, seed in (
        ("knapsack_proportional", "uniform", {"n": SIZES, "support": 3}, 25, 201),
        ("knapsack_general", "uniform", {"n": SIZES, "support": 3}, 25, 202),
        ("interval", "uniform", {"n": SIZES, "variant": "single", "support": 3}, 20, 203),
        ("throughput", "uniform", {"n": SIZES, "support": 3}, 25, 204),
        ("string_guess", "bernoulli", {"n": SIZES}, 25, 205),
    ):
        for inst in hz.generate_instances(problem, family, params, count, seed):
            out.append([it.key for it in inst.items])
    out.append([(0,)] * 8)                      # all identical: undefined, skipped
    out.append([(0,), (1,)])
    out.append([(0,)] * 6 + [(1,), (2,)])
    return out


def test_c2_conditional_symmetry_exact():
    checked = 0
    for keys in _reference_multisets():
        cond = ex.exact_distinct_conditional(keys)
        if cond is None:
            continue
        checked += 1
        assert cond == Fraction(1, 2), keys
    _report("2 Pr(b=1 | first two distinct) = 1/2 exactly", checked > 100,
            f"multisets={checked}")


# -- criterion 3: per-instance deterministic inequalities ------------------


def _run_audit(problem, params, count, seed):
    instances = hz.generate_instances(problem, params.pop("family"), params, count, seed)
    orders = 0
    bad = []
    for inst in instances:
        res = hz.audit_instance(inst)
        orders += res["orders"]
        bad.extend(res["violations"])
    return orders, bad


def test_c3_knapsack_inequalities():
    orders_p, bad_p = _run_audit(
        "knapsack_proportional",
        {"family": "uniform", "n": SIZES, "support": 3}, 500, 301)
    orders_g, bad_g = _run_audit(
        "knapsack_general",
        {"family": "uniform", "n": SIZES, "support": 3}, 500, 302)
    ok = not bad_p and not bad_g
    _report("3a knapsack A1+A2>=7/5*OPT and G+M>=OPT", ok,
            f"orders={orders_p}+{orders_g} violations={len(bad_p) + len(bad_g)}")


def test_c3_interval_inequalities():
    total_orders = 0
    bad = []
    for variant, count, seed in (
        ("single", 200, 303), ("monotone", 150, 304), ("c_benevolent", 150, 305)
    ):
        orders, b = _run_audit(
            "interval",
            {"family": "uniform", "n": SIZES, "variant": variant, "support": 3},
            count, seed)
        total_orders += orders
        bad.extend(b)
    _report("3b interval covering audits", not bad,
            f"orders={total_orders} violations={len(bad)}")


def test_c3_throughput_inequalities():
    orders, bad = _run_audit(
        "throughput", {"family": "uniform", "n": SIZES, "support": 3}, 500, 306)
    _report("3c throughput charging, factor-2, normality", not bad,
            f"orders={orders} violations={len(bad)}")


# -- criterion 4: exact-expectation ROM ratios -----------------------------


def _exact_worst(problem, params, count, seed, variant=None):
    instances = hz.generate_instances(problem, params.pop("family"), params, count, seed)
    config = hz.ExperimentConfig(
        problem=problem, instances=instances, variant=variant, exact=True)
    report = hz.run_experiment(config)
    return float(report.worst_ratio)


def test_c4_knapsack_ratios():
    worst_p = _exact_worst(
        "knapsack_proportional",
        {"family": "uniform", "n": SIZES, "support": 3}, 60, 401)
    worst_g = _exact_worst(
        "knapsack_general",
        {"family": "uniform", "n": SIZES, "support": 3}, 60, 402)
    ok = worst_p >= 0.676 - 0.02 and worst_g >= SQRT2M1 - 0.02
    _report("4a exact E[ALG]/OPT: proportional and general", ok,
            f"prop={worst_p:.4f} general={worst_g:.4f}")


def test_c4_interval_ratio():
    worst = _exact_worst(
        "interval",
        {"family": "uniform", "n": SIZES, "variant": "single", "support": 3},
        60, 403)
    # worst_ratio is reported as E[OPT]/E[ALG] >= 1 for intervals
    ok = 1 / worst >= SQRT2M1 - 0.02
    _report("4b exact single-length interval ratio", ok,
            f"E[ALG]/E[OPT]={1 / worst:.4f}")


def test_c4_throughput_ratio():
    worst = _exact_worst(
        "throughput", {"family": "uniform", "n": SIZES, "support": 3}, 50, 404)
    ok = worst <= 1.77 + 0.02
    _report("4c exact mean |OPT|/|ALG| <= 1.79", ok, f"worst={worst:.4f}")


def test_c4_guessing_ratio():
    instances = [
        make_instance("string_guess", [{"bit": 1}] * k + [{"bit": 0}] * (n - k),
                      {"id": f"guess-{n}-{k}"})
        for n in range(4, 9) for k in range(n + 1)
    ]
    report = hz.run_experiment(hz.ExperimentConfig(
        problem="string_guess", instances=instances, exact=True))
    worst = float(report.worst_ratio)
    ok = worst <= 2.41 + 0.05
    _report("4d exact guessing ratio over all strings 4<=n<=8", ok,
            f"worst={worst:.4f}")


# -- criterion 5: forced-revocation experiment -----------------------------


def test_c5_revocation():
    ok = True
    details = []
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        res = revocation_experiment(100, Fraction(1, 100), alpha, 10**5, 501)
        good = res["estimate"] >= res["bound"] - 3 * res["stderr"]
        ok = ok and good
        details.append(f"a={float(alpha)}: {res['estimate']:.4f}>={res['bound']:.4f}")
        m = math.ceil(alpha * 10)
        ok = ok and exact_revocation_tail(10, alpha) == Fraction(10 - m, 9)
    # the closed form is the algorithm's own behaviour at n=10
    inst = hz.generate_instances("knapsack_proportional", "adversarial",
                                 {"n": 10, "epsilon": Fraction(1, 2)}, 1, 0)[0]
    view = hz.scale_knapsack(inst, proportional=True)
    ws, cap = view.column, view.cap
    copy_w, unit_w = ws[0], ws[-1]
    for pos in range(1, 10):
        order = [copy_w] * pos + [unit_w] + [copy_w] * (9 - pos)
        run = rom_proportional_tworbin(order, cap)
        ok = ok and run.revoked == pos
    _report("5 revocation tail bound and exact n=10 formula", ok, "; ".join(details))


# -- criterion 6: headless property suites ---------------------------------


def test_c6_cli_audit_headless():
    cmds = [
        [sys.executable, "-m", "rombit.cli", "knapsack", "--variant", "proportional",
         "--count", "8", "--params", '{"n": [4, 5], "support": 3}',
         "--exact", "--audit", "--seed", "601"],
        [sys.executable, "-m", "rombit.cli", "intervals", "--variant", "single",
         "--count", "6", "--params", '{"n": [4, 5], "support": 3}',
         "--exact", "--audit", "--seed", "602"],
        [sys.executable, "-m", "rombit.cli", "throughput",
         "--count", "6", "--params", '{"n": [4, 5], "support": 3}',
         "--exact", "--audit", "--seed", "603"],
    ]
    ok = True
    for cmd in cmds:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        ok = ok and proc.returncode == 0 and "violations=0" in proc.stdout
    _report("6 headless --audit runs exit zero", ok)
