"""Interval selection: DP oracle, single-length slots, adaptive chains."""

import random
from fractions import Fraction

from rombit.core import InputError, distinct_orderings
from rombit.intervals import (
    Interval,
    adaptive_slots_run,
    feasible_selection,
    offline_opt_intervals,
    rom_adaptive,
    rom_single_length,
)

I = Interval


def weight(ivs):
    return sum(iv.weight for iv in ivs)


def offline_opt_subsets(intervals):
    """Independent cross-check: brute force over subsets (small n only)."""
    n = len(intervals)
    if n > 14:
        raise InputError("subset cross-check limited to n <= 14")
    best = 0
    for mask in range(1 << n):
        chosen = [intervals[i] for i in range(n) if mask >> i & 1]
        if feasible_selection(chosen):
            v = sum(iv.weight for iv in chosen)
            if v > best:
                best = v
    return best


def test_dp_examples():
    assert offline_opt_intervals([I(0, 2, 5, 0), I(3, 2, 7, 1)]) == 12
    assert offline_opt_intervals([I(0, 4, 3, 0), I(1, 4, 5, 1)]) == 5
    assert offline_opt_intervals([]) == 0


def test_dp_against_subset_enumeration():
    rng = random.Random(1)
    for _ in range(120):
        n = rng.randint(1, 9)
        arr = [I(rng.randrange(0, 20), rng.randint(1, 6), rng.randint(1, 9), i)
               for i in range(n)]
        assert offline_opt_intervals(arr) == offline_opt_subsets(arr)


def test_rom_single_length_branch_values():
    arr = [I(0, 10, 1, 0), I(2, 10, 1, 1), I(15, 10, 3, 2)]
    run = rom_single_length(arr)
    assert run.bit == 1  # identical pair then distinct at odd index 3
    odd_value, even_value = weight(run.prefix + run.a), weight(run.prefix + run.b)
    assert (odd_value, even_value) == (1, 4)
    assert run.value == 1
    assert offline_opt_intervals(arr) == 4
    # per-order covering chain: 2*prefix + odd + even >= OPT
    pre = weight(run.prefix)
    assert 2 * pre + odd_value + even_value >= 4


def test_rom_single_length_identical_prefix_is_opt():
    arr = [I(0, 4, 2, 0), I(1, 4, 2, 1), I(5, 4, 2, 2)]
    run = rom_single_length(arr)
    assert run.bit is None
    assert run.value == offline_opt_intervals(arr)


def test_adaptive_hand_trace():
    arr = [I(0, 4, 16, 0), I(2, 4, 16, 1), I(5, 3, 9, 2)]
    a, b, slots = adaptive_slots_run(arr, "c_benevolent")
    assert [iv.label for iv in a] == [1]
    assert [iv.label for iv in b] == [0, 2]
    assert slots == [(0, 4), (4, 6), (6, 8)]


def test_adaptive_degenerate_phase():
    a, b, _ = adaptive_slots_run([I(3, 5, 25, 0)], "c_benevolent")
    assert [iv.label for iv in b] == [0]
    assert a == []


def test_rom_adaptive_prefix_plus_heavy():
    # prefix of pseudo-identical intervals, then one heavier distinct interval
    arr = [I(0, 4, 2, 0), I(5, 4, 2, 1), I(12, 4, 9, 2)]
    run = rom_adaptive(arr, "monotone")
    assert run.anchor_index == 1
    best = offline_opt_intervals(arr)
    assert max(weight(run.prefix + run.a), weight(run.prefix + run.b)) == best


def test_adaptive_audits_random():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(3, 6)
        rel = [0]
        for _ in range(n - 1):
            rel.append(rel[-1] + rng.choice([0, 3, 4, 5]))
        pool = [(rng.choice([3, 4, 5, 6]), rng.randint(1, 9)) for _ in range(3)]
        pay = [rng.choice(pool) for _ in range(n)]
        for order in distinct_orderings(pay):
            arr = [I(rel[i], L, w, i) for i, (L, w) in enumerate(order)]
            run = rom_adaptive(arr, "monotone")
            assert feasible_selection(run.a)
            assert feasible_selection(run.b)
            if run.anchor_index is not None:
                suf = offline_opt_intervals(arr[run.anchor_index:])
                ab = weight(run.a) + weight(run.b)
                assert ab >= suf


def test_adaptive_exact_expectations_frozen():
    # exact E[ALG] and E[OPT] over all payload orderings, frozen values
    cases = [
        ("monotone", (0, 3, 6, 9), [(3, 2), (3, 2), (4, 7), (4, 7)],
         Fraction(49, 6), Fraction(79, 6)),
        ("monotone", (0, 0, 4, 8), [(4, 5), (4, 5), (3, 1), (5, 9)],
         Fraction(22, 3), Fraction(173, 12)),
        ("c_benevolent", (0, 2, 7, 9), [(2, 4), (2, 4), (3, 9), (4, 16)],
         Fraction(65, 4), Fraction(82, 3)),
    ]
    for variant, rel, pay, want_alg, want_opt in cases:
        total_alg = Fraction(0)
        total_opt = Fraction(0)
        count = 0
        for order in distinct_orderings(pay):
            arr = [I(rel[i], L, w, i) for i, (L, w) in enumerate(order)]
            run = rom_adaptive(arr, variant)
            total_alg += run.value
            total_opt += offline_opt_intervals(arr)
            count += 1
        assert total_alg / count == want_alg
        assert total_opt / count == want_opt


def test_single_length_finite_n_coupling_frozen():
    # With one heavy interval and roughly one release per half-slot, the
    # heavy item's arrival parity (which fixes the bit) and its release slot
    # parity (which branch would keep it) are the same draw, so the exact
    # small-n expectation drops far below the asymptotic constant.  The
    # per-order covering inequalities still hold on every arrival order;
    # they, not the asymptotic ratio, are the guarantee at this scale.
    rel = (3, 4, 7, 9, 12, 13)
    pay = [(4, 1)] * 5 + [(4, 12)]
    total_alg = Fraction(0)
    total_opt = Fraction(0)
    count = 0
    for order in distinct_orderings(pay):
        arr = [I(rel[i], L, w, i) for i, (L, w) in enumerate(order)]
        run = rom_single_length(arr)
        opt = offline_opt_intervals(arr)
        total_alg += run.value
        total_opt += opt
        count += 1
        ai = run.anchor_index
        pre = offline_opt_intervals(arr[:ai])
        suf = offline_opt_intervals(arr[ai:])
        assert weight(run.prefix) == pre
        assert opt <= pre + suf
        assert suf <= run.cover
    assert count == 6
    assert total_alg / count == Fraction(25, 6)
    assert total_opt / count == 14
    assert total_alg / total_opt == Fraction(25, 84)  # ~0.298, far below 0.414


def test_single_length_observations_random():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(3, 6)
        rel = sorted(rng.randrange(0, 3 * n) for _ in range(n))
        ws = [rng.choice([1, 4, 9]) for _ in range(n)]
        for order in distinct_orderings(ws):
            arr = [I(rel[i], 4, order[i], i) for i in range(n)]
            run = rom_single_length(arr)
            assert feasible_selection(run.accepted)
            opt = offline_opt_intervals(arr)
            if run.anchor_index is None:
                assert run.value == opt
                continue
            ai = run.anchor_index
            pre = offline_opt_intervals(arr[:ai])
            suf = offline_opt_intervals(arr[ai:])
            assert weight(run.prefix) == pre
            assert opt <= pre + suf
            assert suf <= run.cover
