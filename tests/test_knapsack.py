"""Knapsack subroutines, ROM runs, oracle, and revocation experiment."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rombit.core import CapacityError, distinct_orderings
from rombit.knapsack import (
    SubroutineA1,
    SubroutineA2,
    exact_revocation_tail,
    forced_revocation_weights,
    greedy_density_run,
    offline_opt_scaled,
    revocation_experiment,
    rom_general,
    rom_proportional,
    rom_proportional_tworbin,
    weight_class,
)


def test_weight_classes_exact_boundaries():
    cases = {
        Fraction(3, 10): "S",
        Fraction(31, 100): "M1",
        Fraction(2, 5): "M1",
        Fraction(41, 100): "M2",
        Fraction(1, 2): "M2",
        Fraction(51, 100): "M3",
        Fraction(59, 100): "M3",
        Fraction(3, 5): "M4",
        Fraction(69, 100): "M4",
        Fraction(7, 10): "L",
        Fraction(1): "L",
    }
    for w, cls in cases.items():
        assert weight_class(w) == cls, w


def test_a1_hand_traces():
    s = SubroutineA1(100)
    s.feed(55, 0)
    assert [w for w, _ in s.contents] == [55]
    s.feed(62, 1)  # M4 arrives: keeper switches, the M3 item is evicted
    assert [w for w, _ in s.contents] == [62]
    s = SubroutineA1(10)
    s.feed(4, 0)
    s.feed(8, 1)  # large: everything else evicted, packing complete
    assert s.frozen and [w for w, _ in s.contents] == [8]
    s.feed(3, 2)
    assert [w for w, _ in s.contents] == [8]


def test_a1_keeps_small_over_duplicate_medium():
    # two M3 items cannot coexist; the duplicate goes before any small item
    s = SubroutineA1(20)
    for i, w in enumerate((6, 6, 11, 11, 11)):
        s.feed(w, i)
    assert s.total == 17


def test_a2_hand_traces():
    s = SubroutineA2(100)
    for i, w in enumerate((45, 31, 31)):
        s.feed(w, i)
    assert sorted(w for w, _ in s.contents) == [31, 45]
    assert not s.frozen
    s = SubroutineA2(100)
    s.feed(50, 0)
    s.feed(45, 1)  # subset of weight 95 >= 90: freeze
    assert s.frozen and s.total == 95
    s = SubroutineA2(10)
    s.feed(2, 0)
    s.feed(8, 1)
    assert s.frozen and [w for w, _ in s.contents] == [8]


def test_rom_proportional_trivials():
    run = rom_proportional([2] * 6, 10)
    assert run.value == 10 and run.bit is None
    run = rom_proportional([75, 20], 100)
    assert run.value == 75 and run.a1_value == 75 and run.a2_value == 75


def test_rom_proportional_matches_a_subroutine():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(2, 7)
        cap = 20
        ws = [rng.randint(1, cap) for _ in range(n)]
        run = rom_proportional(ws, cap)
        a1 = SubroutineA1(cap)
        a2 = SubroutineA2(cap)
        for i, w in enumerate(ws):
            a1.feed(w, i)
            a2.feed(w, i)
        assert run.value in (a1.total, a2.total)
        assert sorted(run.contents) in (sorted(a1.contents), sorted(a2.contents))


def test_tworbin_cases():
    run = rom_proportional_tworbin([3, 3, 4], 10)  # room for one more copy
    assert not run.early_exit and run.bit == 1 and run.value == 10
    run = rom_proportional_tworbin([3, 3, 3, 4], 10)  # 1 - W < w
    assert run.early_exit and run.value == 9 and run.revocations == 0
    run = rom_proportional_tworbin([3, 3, 4], 10, force_bit=0)
    assert run.revocations == 2  # all prefix copies revoked
    assert run.value == 0  # the 4 still fits the simulated bin 1
    run = rom_proportional_tworbin([3, 3, 8], 10, force_bit=0)
    assert run.value == 8  # overflows bin 1, lands in bin 2


def test_rom_general_example():
    run = rom_general([(3, 3), (3, 3), (5, 9)], 10)
    assert run.greedy_value == 12 and run.max_value == 9
    assert run.bit == 1 and run.value == 12
    run = rom_general([(5, 9)], 10)
    assert run.value == 9  # single item: both branches keep it
    # bit 0 takes MAX, and the record still holds GREEDY on the full order
    run = rom_general([(4, 1), (4, 2), (6, 12)], 10)
    assert run.bit == 0 and run.value == 12
    assert run.greedy_value == 14  # the prefix alone would give 1


def test_offline_opt():
    assert offline_opt_scaled([(1, 7)], 1) == 7
    # weights 6/10, 1/2, 1/2 on capacity 10: the two halves fill it
    assert offline_opt_scaled([(6, 6), (5, 5), (5, 5)], 10) == 10
    assert offline_opt_scaled([(12, 5), (15, 9)], 10) == 0
    with pytest.raises(CapacityError):
        offline_opt_scaled([(1, 1)] * 25, 100)


def test_per_order_inequalities_small_batch():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(3, 6)
        cap = 20
        pool = [rng.randint(1, cap) for _ in range(3)]
        ws = [rng.choice(pool) for _ in range(n)]
        opt = offline_opt_scaled([(w, w) for w in ws], cap)
        for order in distinct_orderings(ws):
            a1 = SubroutineA1(cap)
            a2 = SubroutineA2(cap)
            for i, w in enumerate(order):
                a1.feed(w, i)
                a2.feed(w, i)
                assert a1.total <= cap and a2.total <= cap
            assert 5 * (a1.total + a2.total) >= 7 * opt
        items = [(w, rng.randint(1, 30)) for w in pool]
        seq = [rng.choice(items) for _ in range(n)]
        gopt = offline_opt_scaled(seq, cap)
        for order in distinct_orderings(seq):
            g, _ = greedy_density_run(order, cap)
            m = max(v for _, v in order)
            assert g + m >= gopt


def subset_opt_reference(items, cap):
    """Knapsack optimum by enumerating every subset's (weight, value) sums:
    the second route to ``offline_opt_scaled``, sharing none of its code."""
    sums = [(0, 0)]
    for w, v in items:
        sums += [(sw + w, sv + v) for sw, sv in sums]
    return max(sv for sw, sv in sums if sw <= cap)


def greedy_density_reference(items, cap):
    """GREEDY as it was with a Fraction density key, kept verbatim as the
    reference for the cross-multiplying ``greedy_density_run``."""
    contents = []  # (w, v, arrival)
    total_w = 0
    for i, (w, v) in enumerate(items):
        contents.append((w, v, i))
        total_w += w
        while total_w > cap:
            victim = min(contents, key=lambda e: (Fraction(e[1], e[0]), -e[2]))
            contents.remove(victim)
            total_w -= victim[0]
    return sum(e[1] for e in contents), contents


@st.composite
def knapsack_cases(draw, max_n=12):
    """Scaled (items, cap): items are multiples of a few base pairs, so
    densities tie often; the cap is either a subset's exact weight or small
    enough that some items outweigh it."""
    base = draw(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                         min_size=1, max_size=4))
    n = draw(st.integers(1, max_n))
    items = []
    for _ in range(n):
        w, v = draw(st.sampled_from(base))
        k = draw(st.integers(1, 3))
        items.append((k * w, k * v))
    if draw(st.booleans()):
        chosen = draw(st.lists(st.sampled_from(range(n)), min_size=1, unique=True))
        cap = sum(items[i][0] for i in chosen)
    else:
        cap = draw(st.integers(1, 30))
    return items, cap


@settings(max_examples=300, deadline=None)
@given(knapsack_cases())
def test_offline_opt_matches_subset_enumeration(case):
    items, cap = case
    assert offline_opt_scaled(items, cap) == subset_opt_reference(items, cap)


def test_offline_opt_reference_examples():
    # equal densities, an item heavier than the cap, and a cap filled exactly
    for items, cap, want in (
        ([(2, 4), (3, 6), (5, 10)], 5, 10),
        ([(11, 50), (4, 4), (6, 6)], 10, 10),
        ([(3, 5), (4, 7), (5, 1)], 7, 12),
        ([(3, 3), (3, 3), (4, 5)], 6, 6),
    ):
        assert subset_opt_reference(items, cap) == want
        assert offline_opt_scaled(items, cap) == want


@settings(max_examples=300, deadline=None)
@given(knapsack_cases(max_n=10))
def test_greedy_density_run_matches_fraction_reference(case):
    items, cap = case
    assert greedy_density_run(items, cap) == greedy_density_reference(items, cap)


def test_freeze_monotonicity():
    rng = random.Random(8)
    for _ in range(30):
        ws = [rng.randint(1, 20) for _ in range(7)]
        a2 = SubroutineA2(20)
        snapshot = None
        for i, w in enumerate(ws):
            was_frozen = a2.frozen
            if was_frozen and snapshot is None:
                snapshot = list(a2.contents)
            a2.feed(w, i)
            if was_frozen:
                assert a2.contents == (snapshot or a2.contents)


def test_exact_revocation_tail():
    assert exact_revocation_tail(10, Fraction(1, 2)) == Fraction(5, 9)
    assert exact_revocation_tail(10, 1) == 0
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        m = math.ceil(alpha * 10)
        assert exact_revocation_tail(10, alpha) == Fraction(10 - m, 9)


def test_revocation_counts_match_algorithm():
    # the experiment's position shortcut agrees with real forced-bit runs
    n, eps = 10, Fraction(1, 2)
    ws, cap = forced_revocation_weights(n, eps)
    copy_w, unit_w = ws[0], ws[-1]
    for pos in range(1, n):
        order = [copy_w] * pos + [unit_w] + [copy_w] * (n - 1 - pos)
        run = rom_proportional_tworbin(order, cap, force_bit=0)
        assert not run.early_exit
        assert run.revocations == pos


def test_revocation_experiment_bound():
    res = revocation_experiment(50, Fraction(1, 100), Fraction(1, 2), 4000, 3)
    assert res["estimate"] >= res["bound"] - 3 * res["stderr"]


def test_tworbin_exact_expectation():
    rng = random.Random(55)
    worst = Fraction(10)
    for _ in range(25):
        n = rng.randint(4, 6)
        cap = 20
        pool = [rng.randint(1, cap) for _ in range(3)]
        ws = [rng.choice(pool) for _ in range(n)]
        opt = offline_opt_scaled([(w, w) for w in ws], cap)
        if opt == 0:
            continue
        total = Fraction(0)
        count = 0
        for order in distinct_orderings(ws):
            total += rom_proportional_tworbin(list(order), cap).value
            count += 1
        worst = min(worst, (total / count) / opt)
    assert float(worst) >= math.sqrt(2) - 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30).flatmap(
    lambda cap: st.tuples(st.just(cap), st.lists(st.integers(1, cap), max_size=10))))
def test_running_totals_and_peak_match_contents(case):
    """A1's and A2's running totals equal their contents' weight after every
    step, and ``peak`` is the largest of those weights."""
    cap, ws = case
    a1 = SubroutineA1(cap)
    a2 = SubroutineA2(cap)
    peak = 0
    sums = [0, 0]
    for i, w in enumerate(ws):
        a1.feed(w, i)
        a2.feed(w, i)
        sums = [sum(x for x, _ in s.contents) for s in (a1, a2)]
        assert [a1.total, a2.total] == sums
        peak = max(peak, *sums)
    run = rom_proportional(ws, cap)
    assert run.peak == peak
    assert [run.a1_value, run.a2_value] == sums
