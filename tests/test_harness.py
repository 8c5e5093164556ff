"""Instance families, exact/Monte Carlo drivers, audits, reports."""

import math
from fractions import Fraction

import pytest

from rombit import harness as hz
from rombit.core import InputError, read_instances, rng_for, write_instances


def test_adversarial_family_counts():
    inst = hz.generate_instances(
        "knapsack_proportional", "adversarial",
        {"n": 100, "epsilon": Fraction(1, 100)}, 1, 0)[0]
    ws = [it.field_("weight") for it in inst.items]
    assert ws.count(Fraction(1, 10000)) == 99
    assert ws.count(Fraction(1)) == 1


def test_two_type_family_counts():
    inst = hz.generate_instances(
        "string_guess", "two_type", {"n": 10, "alpha": Fraction(3, 10)}, 1, 0)[0]
    bits = [int(it.key[0]) for it in inst.items]
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
    assert rep.violation_count == 0 and rep.ok()


def test_scaled_views_reject_mixed_proc():
    items = hz.generate_instances("throughput", "uniform", {"n": 3}, 1, 1)[0]
    from rombit.core import make_instance, make_item
    bad = make_instance("throughput", [
        make_item((10, 0), {"release": 0, "proc": 10, "slack": 0}),
        make_item((5, 0), {"release": 1, "proc": 5, "slack": 0}),
    ])
    with pytest.raises(InputError):
        hz.scale_throughput(bad)


def test_weight_table_validation():
    from rombit.core import make_instance, make_item

    def cben(table, items):
        built = [
            make_item((w, L), {"release": r, "length": L, "weight": w})
            for r, L, w in items
        ]
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
    parallel = hz.run_experiment(cfg)
    assert [r["empirical_ratio"] for r in serial.rows] == [
        r["empirical_ratio"] for r in parallel.rows
    ]


def test_monotone_family_is_permutation_robust():
    insts = hz.generate_instances("interval", "uniform",
                                  {"n": [5, 6], "variant": "monotone"}, 10, 12)
    from rombit.core import distinct_orderings
    from rombit.intervals import validate_variant
    for inst in insts:
        view = hz.scale_intervals(inst)
        for order in distinct_orderings(view.payload):
            validate_variant(hz._intervals_for(view, order), "monotone")


@pytest.mark.parametrize("problem", ["knapsack_general", "throughput"])
def test_sampled_row_matches_two_pass_reference(problem):
    params = {"n": 6, "support": 3}
    inst = hz.generate_instances(problem, "uniform", params, 1, 4)[0]
    trials, seed = 60, 3
    row = hz.run_experiment(hz.ExperimentConfig(
        problem=problem, instances=[inst], exact=False, trials=trials, seed=seed)).rows[0]
    view = hz.scaled_view(inst)
    domain = hz._order_domain(inst, view)
    algs, opts = [], []
    for t in range(trials):
        perm = list(range(len(domain)))
        rng_for(seed, t).shuffle(perm)
        alg, opt, _ = hz.run_order(view, problem, [domain[j] for j in perm])
        algs.append(alg)
        opts.append(opt)
    mean = sum(algs) / trials
    var = sum((a - mean) ** 2 for a in algs) / trials
    assert row["mean_alg"] == mean
    assert row["opt"] == sum(opts) / trials
    assert row["stderr"] == math.sqrt(float(var) / trials)
    assert row["orders"] == trials


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


@pytest.mark.parametrize("module, name, problem, params", [
    ("throughput", "rom_simulation", "throughput", {"n": [4, 5]}),
    ("intervals", "rom_adaptive", "interval", {"n": [4, 5], "variant": "monotone"}),
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
    orders = sum(len(list(distinct_orderings(hz._order_domain(i, hz.scaled_view(i)))))
                 for i in insts)
    assert rep.ok()
    assert len(calls) == orders == sum(r["orders"] for r in rep.rows)


def test_tworbin_audit_checks_the_two_bin_run(monkeypatch):
    from rombit import knapsack

    insts = hz.generate_instances(
        "knapsack_proportional", "uniform", {"n": [4, 5], "support": 3}, 4, 8)
    cfg = hz.ExperimentConfig(problem="knapsack_proportional", instances=insts,
                              variant="tworbin", exact=True, audit=True)
    assert hz.run_experiment(cfg).violation_count == 0

    def over_capacity(weights, cap):
        contents = [(w, i) for i, w in enumerate(weights)]
        return knapsack.TwoBinRun(bit=1, early_exit=False, contents=contents,
                                  value=sum(weights), revocations=0, cap=cap)

    monkeypatch.setattr(knapsack, "rom_proportional_tworbin", over_capacity)
    rep = hz.run_experiment(cfg)
    assert rep.violation_count > 0
    assert all("two-bin value" in v for r in rep.rows for v in r["violations"])


def test_run_experiment_rejects_empty_work():
    insts = hz.generate_instances("string_guess", "bernoulli", {"n": 4}, 1, 1)
    for cfg in (
        hz.ExperimentConfig(problem="string_guess", instances=[], exact=True),
        hz.ExperimentConfig(problem="string_guess", instances=insts, exact=False, trials=0),
        hz.ExperimentConfig(problem="string_guess", instances=insts, exact=False, trials=-1),
    ):
        with pytest.raises(InputError):
            hz.run_experiment(cfg)
