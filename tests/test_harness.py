"""Instance families, exact/Monte Carlo drivers, audits, reports."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rombit import harness as hz
from rombit import knapsack, throughput
from rombit.core import (
    PROBLEMS,
    InputError,
    distinct_orderings,
    make_instance,
    read_instances,
    rng_for,
    write_instances,
)
from call_counts import calls_while


def test_problem_table_covers_every_problem():
    assert sorted(hz.PROBLEM_TABLE) == sorted(PROBLEMS)
    for problem, spec in hz.PROBLEM_TABLE.items():
        for family in spec.families:
            insts = hz.generate_instances(problem, family, {"n": 4}, 2, 1)
            rep = hz.run_experiment(hz.ExperimentConfig(
                problem=problem, instances=insts, exact=True, audit=True))
            assert rep.violation_count == 0 and len(rep.rows) == 2


_FAMILIES = [(problem, family, variant)
             for problem, spec in hz.PROBLEM_TABLE.items() for family in spec.families
             for variant in (("single", "monotone", "c_benevolent") if problem == "interval"
                             else (None,))]


@pytest.mark.parametrize("key", ["zz", "family"])
@pytest.mark.parametrize("problem, family, variant", _FAMILIES,
                         ids=["-".join(filter(None, case)) for case in _FAMILIES])
def test_every_family_rejects_a_key_it_does_not_read(problem, family, variant, key):
    # a family takes each key it reads, and its name comes as an argument,
    # so a "family" key is left over like any other unread key
    params = {"n": 3, key: family, **({"variant": variant} if variant else {})}
    with pytest.raises(InputError, match=rf"^unknown {problem} {family} parameter '{key}'$"):
        hz.generate_instances(problem, family, params, 2, 0)


@pytest.mark.parametrize("problem", sorted(hz.PROBLEM_TABLE))
def test_a_family_of_none_is_unknown(problem):
    # no family name is None, so no branch of a family may take it as a default
    for call in (lambda: hz.generate_instances(problem, None, {"n": 3}, 1, 0),
                 lambda: hz.check_size(problem, None, {"n": 3}, True)):
        with pytest.raises(InputError, match=rf"^unknown {problem} family None; expected"):
            call()


def test_adversarial_family_counts():
    inst = hz.generate_instances(
        "knapsack_proportional", "adversarial",
        {"n": 100, "epsilon": Fraction(1, 100)}, 1, 0)[0]
    ws = [Fraction(w, inst.den) for w in inst.columns["weight"]]
    assert ws.count(Fraction(1, 10000)) == 99
    assert ws.count(Fraction(1)) == 1


def test_two_type_family_counts():
    inst = hz.generate_instances(
        "string_guess", "two_type", {"n": 10, "alpha": Fraction(3, 10)}, 1, 0)[0]
    bits = inst.columns["bit"]
    assert bits.count(0) == 3 and bits.count(1) == 7


def test_generate_count_zero():
    assert hz.generate_instances("string_guess", "bernoulli", {"n": 5}, 0, 0) == []


def test_generation_is_deterministic():
    a = hz.generate_instances("throughput", "uniform", {"n": [4, 5]}, 3, 7)
    b = hz.generate_instances("throughput", "uniform", {"n": [4, 5]}, 3, 7)
    assert a == b


def test_exact_vs_monte_carlo():
    insts = hz.generate_instances(
        "knapsack_proportional", "uniform", {"n": 5, "support": 2}, 1, 9)
    exact = hz.run_experiment(hz.ExperimentConfig(
        problem="knapsack_proportional", instances=insts, exact=True))
    mc = hz.run_experiment(hz.ExperimentConfig(
        problem="knapsack_proportional", instances=insts, exact=False,
        trials=3000, seed=5))
    diff = abs(float(exact.rows[0]["mean_alg"]) - float(mc.rows[0]["mean_alg"]))
    assert diff <= 3 * mc.rows[0]["stderr"] + 1e-9


def test_report_rows_and_determinism(tmp_path):
    insts = hz.generate_instances("string_guess", "bernoulli", {"n": 6}, 4, 2)
    cfg = hz.ExperimentConfig(problem="string_guess", instances=insts, exact=True)
    rep1 = hz.run_experiment(cfg)
    rep2 = hz.run_experiment(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t1 = hz.report_to_file(rep1, p1)
    t2 = hz.report_to_file(rep2, p2)
    assert t1 == t2
    header = t1.splitlines()[0]
    assert header == "instance_id,problem,model,trials,seed,mean_alg,opt,empirical_ratio,stderr"


def test_aggregate_is_order_invariant():
    insts = hz.generate_instances("string_guess", "bernoulli", {"n": 6}, 5, 3)
    fwd = hz.run_experiment(hz.ExperimentConfig(
        problem="string_guess", instances=insts, exact=True))
    rev = hz.run_experiment(hz.ExperimentConfig(
        problem="string_guess", instances=list(reversed(insts)), exact=True))
    assert fwd.worst_ratio == rev.worst_ratio
    assert [r["instance_id"] for r in fwd.rows] == [r["instance_id"] for r in rev.rows]


def test_audit_wiring():
    insts = hz.generate_instances(
        "knapsack_proportional", "uniform", {"n": [4, 5], "support": 3}, 5, 4)
    rep = hz.run_experiment(hz.ExperimentConfig(
        problem="knapsack_proportional", instances=insts, exact=True, audit=True))
    assert rep.violation_count == 0


def test_scaled_views_reject_mixed_proc():
    items = hz.generate_instances("throughput", "uniform", {"n": 3}, 1, 1)[0]
    bad = make_instance("throughput", [
        {"release": 0, "proc": 10, "slack": 0},
        {"release": 1, "proc": 5, "slack": 0},
    ])
    with pytest.raises(InputError):
        hz.scale_throughput(bad)


def test_weight_table_validation():
    def cben(table, items):
        built = [{"release": r, "length": L, "weight": w} for r, L, w in items]
        inst = make_instance("interval", built,
                            {"variant": "c_benevolent", "weight_table": table})
        hz.scale_intervals(inst)

    good = [[Fraction(2), Fraction(4)], [Fraction(3), Fraction(9)]]
    cben(good, [(0, 2, 4), (5, 3, 9)])
    with pytest.raises(InputError):  # not increasing
        cben([[Fraction(2), Fraction(9)], [Fraction(3), Fraction(4)]],
             [(0, 2, 9)])
    with pytest.raises(InputError):  # concave
        cben([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(10)],
              [Fraction(3), Fraction(11)]], [(0, 1, 1)])
    with pytest.raises(InputError):  # concave through the origin
        cben([[Fraction(2), Fraction(10)], [Fraction(4), Fraction(11)]],
             [(0, 2, 10)])
    with pytest.raises(InputError):  # item off the table
        cben(good, [(0, 2, 5)])


def test_instances_roundtrip_through_files(tmp_path):
    insts = hz.generate_instances("interval", "uniform",
                                  {"n": 4, "variant": "c_benevolent"}, 2, 8)
    path = tmp_path / "iv.jsonl"
    write_instances(insts, path)
    assert read_instances(path) == insts


def test_exact_mode_guards_large_instances():
    from rombit.core import CapacityError

    insts = hz.generate_instances("string_guess", "bernoulli", {"n": 12}, 1, 5)
    with pytest.raises(CapacityError):
        hz.run_experiment(hz.ExperimentConfig(
            problem="string_guess", instances=insts, exact=True))
    # sampling mode still works above the guard
    rep = hz.run_experiment(hz.ExperimentConfig(
        problem="string_guess", instances=insts, exact=False, trials=40, seed=1))
    assert rep.rows[0]["orders"] == 40


def test_worker_pool_matches_serial(monkeypatch):
    insts = hz.generate_instances("string_guess", "bernoulli", {"n": 6}, 4, 21)
    cfg = hz.ExperimentConfig(problem="string_guess", instances=insts, exact=True)
    serial = hz.run_experiment(cfg)
    monkeypatch.setenv("ROMBIT_WORKERS", "2")
    tasks, starmap = [], hz._starmap

    def recording_starmap(fn, args):
        tasks.extend(args)
        return starmap(fn, args)

    monkeypatch.setattr(hz, "_starmap", recording_starmap)
    parallel = hz.run_experiment(cfg)
    assert [r["empirical_ratio"] for r in serial.rows] == [
        r["empirical_ratio"] for r in parallel.rows
    ]
    # each task carries its own instance, and no task pickles the whole list
    assert [inst for inst, _ in tasks] == insts
    assert not any(task.instances for _, task in tasks)


def interval_instance(variant, items):
    """An interval instance of (release, length, weight) items."""
    built = [{"release": r, "length": L, "weight": w} for r, L, w in items]
    return make_instance("interval", built, {"variant": variant})


def monotone_in_every_order(releases, lengths):
    """The monotone rule checked per arrival order: with the positions in
    (release, position) order, no interval released strictly before the
    next one ends after it, in any distinct order of the lengths."""
    pos = sorted(range(len(releases)), key=lambda i: (releases[i], i))
    for order in distinct_orderings(lengths):
        for a, b in zip(pos, pos[1:]):
            if releases[a] < releases[b] and releases[a] + order[a] > releases[b] + order[b]:
                return False
    return True


def test_monotone_family_is_permutation_robust():
    insts = hz.generate_instances("interval", "uniform",
                                  {"n": [5, 6], "variant": "monotone"}, 10, 12)
    for inst in insts:
        view = hz.scale_intervals(inst)
        assert monotone_in_every_order(view.releases, [L for L, _ in view.column])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 8)), min_size=1, max_size=6))
def test_monotone_rule_matches_every_order(pairs):
    pairs.sort(key=lambda pair: pair[0])  # instances release in item order
    releases = [r for r, _ in pairs]
    lengths = [L for _, L in pairs]
    try:
        hz.scale_intervals(interval_instance("monotone", [(r, L, 1) for r, L in pairs]))
        ok = True
    except InputError:
        ok = False
    assert ok == monotone_in_every_order(releases, lengths)


@pytest.mark.parametrize("variant, items, ok", [
    ("single", [(0, 4, 1), (0, 5, 1)], False),  # mixed lengths
    ("single", [(0, 4, 1), (2, 4, 3)], True),
    ("monotone", [(0, 9, 1), (1, 2, 1)], False),  # spread 7 over a gap of 1
    ("monotone", [(0, 3, 1), (3, 6, 2), (3, 4, 1)], True),  # spread 3, gap 3
    ("c_benevolent", [(0, 2, 5), (3, 2, 6)], False),  # two weights at one length
    ("c_benevolent", [(0, 2, 4), (3, 3, 3)], False),  # weight falls with length
    ("c_benevolent", [(0, 2, 10), (3, 3, 11)], False),  # concave, no table
    ("c_benevolent", [(0, 2, 4), (3, 3, 9), (5, 2, 4)], True),
    ("mystery", [(0, 2, 4)], False),
])
def test_scale_intervals_checks_the_variant_rule(variant, items, ok):
    inst = interval_instance(variant, items)
    if ok:
        assert hz.scale_intervals(inst).variant == variant
    else:
        with pytest.raises(InputError):
            hz.scale_intervals(inst)


@pytest.mark.parametrize("problem", ["knapsack_general", "throughput"])
def test_sampled_row_matches_two_pass_reference(problem):
    params = {"n": 6, "support": 3}
    inst = hz.generate_instances(problem, "uniform", params, 1, 4)[0]
    trials, seed = 60, 3
    row = hz.run_experiment(hz.ExperimentConfig(
        problem=problem, instances=[inst], exact=False, trials=trials, seed=seed)).rows[0]
    view = hz.PROBLEM_TABLE[problem].scale(inst)
    domain = view.column
    algs, opts = [], []
    for t in range(trials):
        perm = list(range(len(domain)))
        rng_for(seed, t).shuffle(perm)
        alg, opt, _ = hz.run_order(view, problem, [domain[j] for j in perm])
        algs.append(Fraction(alg, view.unit))
        opts.append(Fraction(opt, view.unit))
    mean = sum(algs) / trials
    var = sum((a - mean) ** 2 for a in algs) / trials
    assert row["mean_alg"] == mean
    assert row["opt"] == sum(opts) / trials
    assert row["stderr"] == math.sqrt(float(var) / trials)
    assert row["orders"] == trials


def _fraction_row(inst, problem, variant):
    """The exact row reduced in Fractions, one per order: the reference for
    the integer running sums of ``_row``."""
    view = hz.PROBLEM_TABLE[problem].scale(inst)
    algs, opts = [], []
    for order in distinct_orderings(view.column):
        alg, opt, _ = hz.run_order(view, problem, order, variant)
        algs.append(Fraction(alg, view.unit))
        opts.append(Fraction(opt, view.unit))
    count = len(algs)
    mean_alg, mean_opt = sum(algs) / count, sum(opts) / count
    if problem in ("knapsack_general", "knapsack_proportional"):
        ratio = mean_alg / mean_opt if mean_opt else Fraction(1)
    elif problem == "throughput":
        ratio = sum(o / a if a else Fraction(0) for o, a in zip(opts, algs)) / count
    else:
        ratio = mean_opt / mean_alg if mean_alg else Fraction(0)
    return {"mean_alg": mean_alg, "opt": mean_opt, "empirical_ratio": ratio,
            "orders": count}


@pytest.mark.parametrize("problem, variant, params", [
    ("knapsack_general", None, {"n": [4, 5], "support": 3}),
    ("knapsack_proportional", None, {"n": [4, 5], "support": 3}),
    ("knapsack_proportional", "tworbin", {"n": [4, 5], "support": 3}),
    ("interval", None, {"n": [4, 5], "variant": "single"}),
    ("interval", None, {"n": [4, 5], "variant": "monotone"}),
    ("interval", None, {"n": [4, 5], "variant": "c_benevolent"}),
    ("throughput", None, {"n": [4, 5]}),
    ("string_guess", None, {"n": [4, 5]}),
])
def test_exact_row_matches_fraction_reference(problem, variant, params, monkeypatch):
    family = "bernoulli" if problem == "string_guess" else "uniform"
    insts = hz.generate_instances(problem, family, params, 4, 11)
    if problem == "throughput":
        # ALG = 0 on every order that starts with a least-slack job, so the
        # mean of OPT/ALG meets its zero case
        real = hz.throughput.rom_simulation

        def sometimes_empty(rel, last, p):
            run = real(rel, last, p)
            slacks = [s - r for r, s in zip(rel, last)]
            if slacks[0] == min(slacks):
                return replace(run, one=0, zero=0)
            return run

        monkeypatch.setattr(hz.throughput, "rom_simulation", sometimes_empty)
    for inst in insts:
        row = hz._row(inst, hz.ExperimentConfig(problem=problem, instances=[inst],
                                                variant=variant))
        want = _fraction_row(inst, problem, variant)
        assert {k: row[k] for k in want} == want
        assert all(type(row[k]) is Fraction
                   for k in ("mean_alg", "opt", "empirical_ratio"))
        assert row["stderr"] is None


@pytest.mark.parametrize("nx, ny, violated", [
    (1, 2, False), (2, 1, False), (1, 3, True), (3, 1, True), (2, 4, False),
    (2, 5, True), (0, 1, False), (0, 2, True),
])
def test_throughput_factor_two_boundary(nx, ny, violated, monkeypatch):
    from types import SimpleNamespace

    monkeypatch.setattr(hz.throughput, "is_normal", lambda *a: (True, ""))
    run = SimpleNamespace(x=[None] * nx, y=[None] * ny)
    got = hz._audit_throughput(SimpleNamespace(proc=1, releases=[]), "o", [], run, 0)
    assert any("factor-2" in v for v in got) == violated
    assert len(got) == violated


def test_throughput_audit_checks_each_distinct_schedule_once(monkeypatch):
    # an order with no bit runs one schedule (run.x is run.y), so a bad
    # schedule is one violation; an order with a bit has two schedules
    monkeypatch.setattr(hz.throughput, "is_normal", lambda *a: (False, "patched"))
    view = hz.Scaled(column=[5, 5, 0], releases=[0, 2, 5], proc=10)
    for order, want in (([5, 5, 5], 1), ([5, 0, 5], 2), ([0, 5, 5], 2)):
        _, _, violations = hz.run_order(view, "throughput", order, audit=True)
        assert [v for v in violations if v.startswith("not normal")] == [
            f"not normal on {order}: patched"] * want


def test_knapsack_opt_once_per_scaling(monkeypatch):
    from rombit import knapsack

    calls = []
    real = knapsack.offline_opt_scaled
    monkeypatch.setattr(knapsack, "offline_opt_scaled",
                        lambda items, cap: calls.append(1) or real(items, cap))
    insts = hz.generate_instances(
        "knapsack_general", "uniform", {"n": 5, "support": 3}, 1, 2)
    hz.run_experiment(hz.ExperimentConfig(
        problem="knapsack_general", instances=insts, exact=True, audit=True))
    assert len(calls) == 1  # the audit rides the row's walk and its scaling


def _search_calls(module, fn):
    """How many times a function named ``rec`` in ``module`` (an oracle's
    inner search) runs while ``fn()`` runs."""
    return calls_while(fn, lambda code: code.co_name == "rec"
                       and code.co_filename == module.__file__)


def test_oracle_searches_do_not_grow_with_copies():
    # copies of one knapsack item, or identical throughput jobs, are
    # interchangeable, so the exact searches do the same work at every count;
    # a search over which copies makes 615,295 knapsack calls at 24 copies
    def copies(k):
        return _search_calls(knapsack, lambda: knapsack.offline_opt_scaled([(3, 1)] * k, 20))

    def jobs(k):
        return _search_calls(
            throughput, lambda: throughput.offline_opt_throughput([0] * k, [40] * k, 10))

    assert copies(12) == copies(24) > 0
    assert jobs(7) == jobs(10) > 0
    assert knapsack.offline_opt_scaled([(3, 1)] * 24, 20) == 6
    assert throughput.offline_opt_throughput([0] * 10, [40] * 10, 10) == 5


@pytest.mark.parametrize("module, name, problem, params", [
    ("throughput", "rom_simulation", "throughput", {"n": [4, 5]}),
    ("intervals", "rom_adaptive", "interval", {"n": [4, 5], "variant": "monotone"}),
    ("knapsack", "rom_proportional", "knapsack_proportional", {"n": [4, 5], "support": 3}),
])
def test_audited_exact_run_walks_each_order_once(monkeypatch, module, name, problem,
                                                  params):
    from rombit.core import distinct_orderings

    mod = getattr(hz, module)
    calls = []
    real = getattr(mod, name)
    monkeypatch.setattr(mod, name, lambda *a: calls.append(1) or real(*a))
    insts = hz.generate_instances(problem, "uniform", params, 3, 5)
    rep = hz.run_experiment(hz.ExperimentConfig(
        problem=problem, instances=insts, exact=True, audit=True))
    orders = sum(len(list(distinct_orderings(hz.PROBLEM_TABLE[problem].scale(i).column)))
                 for i in insts)
    assert rep.violation_count == 0
    assert len(calls) == orders == sum(r["orders"] for r in rep.rows)


@pytest.mark.parametrize("variant", ["single", "monotone", "c_benevolent"])
def test_audited_interval_run_calls_the_oracle_at_most_twice(monkeypatch, variant):
    # once per order for OPT and every OPT(suffix); once more per order that
    # takes a bit, for OPT(prefix)
    calls, bits = [], []
    real_opt = hz.intervals.offline_opt_intervals
    monkeypatch.setattr(hz.intervals, "offline_opt_intervals",
                        lambda *a: calls.append(1) or real_opt(*a))
    rom = "rom_single_length" if variant == "single" else "rom_adaptive"
    real_rom = getattr(hz.intervals, rom)

    def counted_rom(*args):
        run = real_rom(*args)
        bits.append(run.bit is not None)
        return run

    monkeypatch.setattr(hz.intervals, rom, counted_rom)
    insts = hz.generate_instances(
        "interval", "uniform", {"n": [4, 5], "variant": variant, "support": 2}, 4, 6)
    insts.append(interval_instance(variant, [(0, 3, 2), (1, 3, 2), (5, 3, 2)]))  # no bit
    rep = hz.run_experiment(hz.ExperimentConfig(
        problem="interval", instances=insts, exact=True, audit=True))
    orders = sum(r["orders"] for r in rep.rows)
    assert rep.violation_count == 0
    assert len(bits) == orders
    assert 0 < sum(bits) < orders  # both kinds of order occur
    assert len(calls) == orders + sum(bits)


def test_tworbin_audit_checks_the_two_bin_run(monkeypatch):
    from rombit import knapsack

    insts = hz.generate_instances(
        "knapsack_proportional", "uniform", {"n": [4, 5], "support": 3}, 4, 8)
    cfg = hz.ExperimentConfig(problem="knapsack_proportional", instances=insts,
                              variant="tworbin", exact=True, audit=True)
    assert hz.run_experiment(cfg).violation_count == 0

    def over_capacity(weights, cap):
        contents = [(w, i) for i, w in enumerate(weights)]
        return knapsack.TwoBinRun(bit=1, one=sum(weights), zero=0, early_exit=False,
                                  contents=contents, revoked=0)

    real = knapsack.rom_proportional_tworbin
    monkeypatch.setattr(knapsack, "rom_proportional_tworbin", over_capacity)
    rep = hz.run_experiment(cfg)
    assert rep.violation_count > 0
    assert all("two-bin value" in v for r in rep.rows for v in r["violations"])

    flagged = []

    def one_more_revoked(weights, cap):
        # with a bit and no early exit, bit 0 revokes the whole prefix, so
        # one more item is the distinct arrival
        run = real(weights, cap)
        flagged.append(run.bit is not None and not run.early_exit)
        return replace(run, revoked=run.revoked + 1)

    monkeypatch.setattr(knapsack, "rom_proportional_tworbin", one_more_revoked)
    rep = hz.run_experiment(cfg)
    violations = [v for r in rep.rows for v in r["violations"]]
    assert len(flagged) == sum(r["orders"] for r in rep.rows)
    assert 0 < len(violations) == sum(flagged)  # one per flagged order
    assert all("revoked" in v for v in violations)

    flagged.clear()

    def unplaced_contents(weights, cap):
        # the same weights at an index no arrival has
        run = real(weights, cap)
        flagged.append(bool(run.contents))
        return replace(run, contents=[(w, -1) for w, _ in run.contents])

    monkeypatch.setattr(knapsack, "rom_proportional_tworbin", unplaced_contents)
    rep = hz.run_experiment(cfg)
    violations = [v for r in rep.rows for v in r["violations"]]
    assert 0 < len(violations) == sum(flagged)  # one per flagged order
    assert all("two-bin contents differ from the arrivals" in v for v in violations)


@pytest.mark.parametrize("weights, revoked, violated", [
    ([3, 3, 4], 0, False), ([3, 3, 4], 2, False), ([3, 3, 4], 3, True),
    ([3, 3, 4], 4, True), ([3, 3, 3, 3], 3, False), ([3, 3, 3, 3], 4, True),
])
def test_tworbin_revoked_boundary(weights, revoked, violated):
    # the revoked items are the first arrivals, copies of the first, within
    # the capacity 10: two 3s and the 4 are not all copies, four 3s weigh 12
    from types import SimpleNamespace

    run = knapsack.TwoBinRun(bit=0, one=0, zero=0, early_exit=False, contents=[],
                             revoked=revoked)
    got = hz._audit_tworbin(SimpleNamespace(cap=10), "o", weights, run, 0)
    assert len(got) == violated
    assert all("revoked" in v for v in got)


@pytest.mark.parametrize("check, doctor", [
    ("capacity exceeded", lambda run, cap: replace(run, peak=cap + 1)),
    ("A1+A2 < 1.4*OPT", lambda run, cap: replace(run, one=0, zero=0, contents=[])),
    ("run differs", lambda run, cap: replace(run, contents=run.contents[1:])),
])
def test_proportional_audit_checks_the_run_record(monkeypatch, check, doctor):
    # the undoctored runs of these instances pass: test_audit_wiring
    insts = hz.generate_instances(
        "knapsack_proportional", "uniform", {"n": [4, 5], "support": 3}, 5, 4)
    cfg = hz.ExperimentConfig(problem="knapsack_proportional", instances=insts,
                              exact=True, audit=True)
    real = hz.knapsack.rom_proportional
    monkeypatch.setattr(hz.knapsack, "rom_proportional",
                        lambda weights, cap: doctor(real(weights, cap), cap))
    rep = hz.run_experiment(cfg)
    violations = [v for r in rep.rows for v in r["violations"]]
    assert len(violations) == sum(r["orders"] for r in rep.rows)  # one per order
    assert all(check in v for v in violations)


@pytest.mark.parametrize("variant, rom", [("single", "rom_single_length"),
                                          ("monotone", "rom_adaptive")],
                         ids=["single", "monotone"])
@pytest.mark.parametrize("check, doctor, flagged", [
    ("overlapping selection", lambda run: replace(run, b=run.b + run.b[:1]),
     lambda run: True),
    ("cover < OPT(suffix)", lambda run: replace(run, cover=0), lambda run: True),
    # dropping a prefix acceptance leaves a lighter, still feasible prefix
    ("prefix != OPT(prefix)", lambda run: replace(run, prefix=run.prefix[:-1]),
     lambda run: bool(run.prefix)),
], ids=["overlapping-b", "cover", "prefix"])
def test_interval_audit_checks_the_run_record(monkeypatch, variant, rom, check, doctor,
                                              flagged):
    insts = hz.generate_instances(
        "interval", "uniform", {"n": [4, 5], "variant": variant}, 5, 4)
    # two distinct keys in every instance, so every order takes a bit
    assert all(len({it.key for it in inst.items}) > 1 for inst in insts)
    cfg = hz.ExperimentConfig(problem="interval", instances=insts, exact=True, audit=True)
    assert hz.run_experiment(cfg).violation_count == 0
    real = getattr(hz.intervals, rom)
    doctored = []

    def doctored_rom(*args):
        run = real(*args)
        doctored.append(flagged(run))
        return doctor(run)

    monkeypatch.setattr(hz.intervals, rom, doctored_rom)
    rep = hz.run_experiment(cfg)
    violations = [v for r in rep.rows for v in r["violations"]]
    assert len(doctored) == sum(r["orders"] for r in rep.rows)
    assert 0 < len(violations) == sum(doctored)  # one per flagged order
    assert all(check in v for v in violations)


@pytest.mark.parametrize("variant, rom", [("single", "rom_single_length"),
                                          ("monotone", "rom_adaptive")],
                         ids=["single", "monotone"])
def test_interval_audit_checks_the_identical_input_run(monkeypatch, variant, rom):
    # every key identical: no order takes a bit, and the run's value must be OPT
    cfg = hz.ExperimentConfig(problem="interval", exact=True, audit=True, instances=[
        interval_instance(variant, [(0, 3, 2), (1, 3, 2), (5, 3, 2)])])
    assert hz.run_experiment(cfg).violation_count == 0
    real = getattr(hz.intervals, rom)

    def lighter(*args):  # the no-bit value, one less than the greedy optimum
        run = real(*args)
        return replace(run, one=run.one - 1)

    monkeypatch.setattr(hz.intervals, rom, lighter)
    (row,) = hz.run_experiment(cfg).rows
    assert row["orders"] == 1
    assert [v.split(" on ")[0] for v in row["violations"]] == [
        "identical-input prefix not optimal"]


@pytest.mark.parametrize("variant, rom", [("single", "rom_single_length"),
                                          ("monotone", "rom_adaptive")],
                         ids=["single", "monotone"])
def test_interval_audit_checks_the_prefix_suffix_relaxation(monkeypatch, variant, rom):
    # an oracle that understates OPT(suffix) past the first arrival, and
    # leaves OPT and OPT(prefix) alone, breaks OPT <= OPT(prefix) +
    # OPT(suffix) on every order whose anchor is not its first arrival
    insts = hz.generate_instances(
        "interval", "uniform", {"n": [4, 5], "variant": variant}, 5, 4)
    cfg = hz.ExperimentConfig(problem="interval", instances=insts, exact=True, audit=True)
    assert hz.run_experiment(cfg).violation_count == 0
    real_opt, real_rom = hz.intervals.offline_opt_intervals, getattr(hz.intervals, rom)
    flagged = []

    def understated(rel, order):
        suffix_opt = real_opt(rel, order)
        if len(order) < len(rel):  # OPT(prefix)
            return suffix_opt
        return [suffix_opt[0], *(x - 1000 for x in suffix_opt[1:])]

    def counted_rom(*args):
        run = real_rom(*args)
        flagged.append(bool(run.anchor_index))
        return run

    monkeypatch.setattr(hz.intervals, "offline_opt_intervals", understated)
    monkeypatch.setattr(hz.intervals, rom, counted_rom)
    rep = hz.run_experiment(cfg)
    violations = [v for r in rep.rows for v in r["violations"]]
    assert len(flagged) == sum(r["orders"] for r in rep.rows)
    assert 0 < len(violations) == sum(flagged)  # one per flagged order
    assert all("OPT > OPT(prefix)+OPT(suffix)" in v for v in violations)


def test_general_audit_checks_greedy_plus_max(monkeypatch):
    insts = hz.generate_instances("knapsack_general", "uniform", {"n": [4, 5], "support": 3},
                                  4, 8)
    cfg = hz.ExperimentConfig(problem="knapsack_general", instances=insts, exact=True,
                              audit=True)
    assert hz.run_experiment(cfg).violation_count == 0
    real = hz.knapsack.rom_general
    monkeypatch.setattr(hz.knapsack, "rom_general",
                        lambda items, cap: replace(real(items, cap), zero=0, one=0))
    rep = hz.run_experiment(cfg)
    violations = [v for r in rep.rows for v in r["violations"]]
    assert len(violations) == sum(r["orders"] for r in rep.rows)  # one per order
    assert all("GREEDY+MAX < OPT" in v for v in violations)


def test_throughput_audit_checks_the_charging_bound(monkeypatch):
    # an oracle that overstates |OPT| by one job per schedulable slot breaks
    # |OPT| <= 5/6 (|X| + |Y|), and no other check reads OPT
    insts = hz.generate_instances("throughput", "uniform", {"n": [4, 5]}, 4, 8)
    cfg = hz.ExperimentConfig(problem="throughput", instances=insts, exact=True, audit=True)
    assert hz.run_experiment(cfg).violation_count == 0
    real = hz.throughput.offline_opt_throughput
    monkeypatch.setattr(hz.throughput, "offline_opt_throughput",
                        lambda rel, last, p: 2 * real(rel, last, p) + 1)
    rep = hz.run_experiment(cfg)
    violations = [v for r in rep.rows for v in r["violations"]]
    assert len(violations) == sum(r["orders"] for r in rep.rows)  # one per order
    assert all("|OPT| > 5/6(|X|+|Y|)" in v for v in violations)


def test_run_experiment_rejects_empty_work():
    insts = hz.generate_instances("string_guess", "bernoulli", {"n": 4}, 1, 1)
    for cfg in (
        hz.ExperimentConfig(problem="string_guess", instances=[], exact=True),
        hz.ExperimentConfig(problem="string_guess", instances=insts, exact=False, trials=0),
        hz.ExperimentConfig(problem="string_guess", instances=insts, exact=False, trials=-1),
    ):
        with pytest.raises(InputError):
            hz.run_experiment(cfg)
