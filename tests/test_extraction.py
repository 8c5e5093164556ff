"""Extraction processes and bias oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rombit.core import InputError, StateError, distinct_orderings, make_instance, make_item
from rombit.extraction import (
    CombineExtractor,
    Process1Extractor,
    all_distinct_counts,
    bias_curve,
    bit_for_sequence,
    combine_predicted,
    distinct_unbiased,
    empirical_bias,
    exact_bias,
    exact_distinct_conditional,
    first_frequency_counts,
    harvest,
    pairwise_bits,
    process1_predicted,
    two_type_counts,
)

A, B = (Fraction(0),), (Fraction(1),)


def test_process1_rule():
    ext = Process1Extractor()
    assert ext.feed(A) is None
    assert ext.feed(B) == 1  # change at even index
    ext = Process1Extractor()
    for k in (A, A):
        ext.feed(k)
    assert ext.feed(B) == 0  # change at index 3
    with pytest.raises(StateError):
        ext.feed(A)


def test_process1_exact_aab():
    assert exact_bias([A, A, B], "process1").prob_one == Fraction(2, 3)
    assert exact_bias([A, B], "process1").prob_one == 1


def test_distinct_unbiased():
    assert distinct_unbiased((1,), (2,)) == 1
    assert distinct_unbiased((2,), (1,)) == 0
    with pytest.raises(InputError):
        distinct_unbiased((2,), (2,))
    rep = exact_bias([(i,) for i in range(4)], "distinct_unbiased")
    assert rep.prob_one == Fraction(1, 2)


def test_combine_rule():
    ext = CombineExtractor()
    ext.feed(B)
    assert ext.feed(A) == 1  # second smaller than first
    ext = CombineExtractor()
    ext.feed(A)
    assert ext.feed(A) is None
    assert ext.feed(B) == 1  # first distinct item at odd index
    rep = exact_bias([A, A, B], "combine")
    assert rep.prob_one == Fraction(2, 3)


def test_exact_bias_no_bit_mass():
    rep = exact_bias([A, A, A], "combine")
    assert rep.no_bit == 1
    assert rep.prob_one == 0


def test_pairwise_bits():
    assert pairwise_bits([(1,), (2,), (3,), (4,)]) == [1, 1]
    assert pairwise_bits([(2,), (1,), (4,), (3,)]) == [0, 0]
    with pytest.raises(InputError):
        pairwise_bits([(1,), (1,)])
    # each bit marginally unbiased over all orders of six distinct items
    keys = [(i,) for i in range(6)]
    sums = [0, 0, 0]
    count = 0
    for order in distinct_orderings(keys):
        bits = pairwise_bits(list(order))
        for j, b in enumerate(bits):
            sums[j] += b
        count += 1
    for s in sums:
        assert Fraction(s, count) == Fraction(1, 2)


def test_conditional_symmetry_random_multisets():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 7)
        keys = [(Fraction(rng.randint(0, 3)),) for _ in range(n)]
        cond = exact_distinct_conditional(keys)
        if cond is not None:
            assert cond == Fraction(1, 2)


def test_empirical_bias_two_type():
    rep = empirical_bias(two_type_counts(Fraction(1, 2), 10**4), "process1", 20000, 5)
    assert abs(rep.prob_one - 2 / 3) <= 0.02
    assert rep.stderr < 0.005


def test_empirical_bias_combine_worst_case():
    counts = first_frequency_counts(Fraction(4142, 10000), 10**4)
    rep = empirical_bias(counts, "combine", 20000, 7, first_key=(Fraction(0),))
    assert abs(rep.prob_one - (2 - math.sqrt(2))) <= 0.02


def test_empirical_bias_distinct():
    rep = empirical_bias(all_distinct_counts(10**4), "distinct_unbiased", 20000, 9)
    assert abs(rep.prob_one - 0.5) <= 0.015
    with pytest.raises(InputError):
        empirical_bias({(0,): 2, (1,): 1}, "distinct_unbiased", 10, 0)


def test_empirical_bias_determinism():
    counts = two_type_counts(Fraction(1, 3), 1000)
    a = empirical_bias(counts, "combine", 500, 11)
    b = empirical_bias(counts, "combine", 500, 11)
    assert a.prob_one == b.prob_one and a.no_bit == b.no_bit


def test_empirical_bias_source_forms_agree():
    rng = random.Random(8)
    keys = [(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(0, 1))) for _ in range(40)]
    counts = {}
    for k in keys:
        counts[k] = counts.get(k, 0) + 1
    shuffled = list(counts.items())
    rng.shuffle(shuffled)
    inst = make_instance("knapsack_general", [make_item(k) for k in keys])
    sources = (counts, keys, inst, dict(shuffled))
    for mode, first_key in (("process1", None), ("combine", None),
                            ("process1", keys[0]), ("combine", keys[0])):
        reps = [empirical_bias(src, mode, 400, 13, first_key=first_key) for src in sources]
        assert all(rep == reps[0] for rep in reps), (mode, first_key)
    distinct = [(Fraction(i),) for i in range(30)]
    rng.shuffle(distinct)
    sources = (all_distinct_counts(30), distinct, dict.fromkeys(distinct, 1))
    reps = [empirical_bias(src, "distinct_unbiased", 400, 13) for src in sources]
    assert all(rep == reps[0] for rep in reps)


def test_monte_carlo_matches_enumeration():
    # two routes that share no sampling code: 4.5 sigma plus a 1e-3 floor
    rng = random.Random(2024)
    trials = 20000
    for case in range(24):
        n = rng.randint(1, 8)
        if case % 3 == 2:
            mode = "distinct_unbiased"
            keys = [(Fraction(v),) for v in rng.sample(range(20), max(n, 2))]
        else:
            mode = ("process1", "combine")[case % 3]
            keys = [(Fraction(rng.randint(0, 3)),) for _ in range(n)]
        exact = exact_bias(keys, mode)
        cases = [(None, exact.prob_one, exact.no_bit)]
        if mode != "distinct_unbiased":
            # conditioned on the first arrival: the distinct orders starting
            # with it are equally likely
            bits = [bit_for_sequence(o, mode) for o in distinct_orderings(keys)
                    if o[0] == keys[0]]
            cases.append((keys[0], Fraction(bits.count(1), len(bits)),
                          Fraction(bits.count(None), len(bits))))
        for first_key, p_one, no_bit in cases:
            rep = empirical_bias(keys, mode, trials, case, first_key=first_key)
            for got, want in ((rep.prob_one, float(p_one)), (rep.no_bit, float(no_bit))):
                tol = 4.5 * math.sqrt(want * (1 - want) / trials) + 1e-3
                assert abs(got - want) <= tol, (keys, mode, first_key, rep, want)


def test_closed_forms():
    assert process1_predicted(Fraction(1, 2)) == Fraction(2, 3)
    # limit toward 0: one type vanishes, the bit becomes fair
    assert abs(process1_predicted(Fraction(1, 10**6)) - Fraction(1, 2)) < Fraction(1, 10**5)
    assert combine_predicted(Fraction(9, 10)) == Fraction(199, 380)
    r = Fraction(4142, 10000)
    assert abs(float(combine_predicted(r)) - (2 - math.sqrt(2))) < 1e-4
    for bad in (0, 1):
        with pytest.raises(InputError):
            process1_predicted(Fraction(bad))
        with pytest.raises(InputError):
            combine_predicted(Fraction(bad))


def test_bias_curve_rows():
    rows = bias_curve("combine", [Fraction(1, 4), Fraction(3, 4)], 2000, 2000, 3)
    for row in rows:
        assert abs(row["empirical"] - float(row["predicted"])) <= 0.05
        assert 0.5 - 3 * row["stderr"] - 0.03 <= row["empirical"]


def _readme_rule(keys, mode):
    """(bit, index) by the README rule, written independently of the extractors."""
    i = next((i for i, k in enumerate(keys) if k != keys[0]), None)
    if i is None:
        return None, None
    if mode == "process1":
        return int(i % 2 == 1), i
    if i == 1:
        return int(keys[1] < keys[0]), i
    return int(i % 2 == 0), i


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda dim: st.lists(st.tuples(*[st.integers(0, 2)] * dim), max_size=9)
    ),
    st.sampled_from(["process1", "combine"]),
)
def test_harvest_matches_readme_rule(keys, mode):
    expected = _readme_rule(keys, mode)
    assert harvest(keys, mode) == expected
    assert bit_for_sequence(keys, mode) == expected[0]


def test_harvest_no_emission_and_laziness():
    assert harvest([], "combine") == (None, None)
    assert harvest([A, A, A], "process1") == (None, None)
    stream = iter([A, A, A, B, A])
    assert harvest(stream, "combine") == (0, 3)
    assert list(stream) == [A]  # nothing read past the emission
