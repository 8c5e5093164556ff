"""Interval selection: the suffix-optima oracle, single-length slots,
adaptive chains.  An instance is a sorted release column ``rel`` and an
arrival order a column of (length, weight) pairs; runs hold arrival
indices."""

import bisect
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rombit.core import InputError, distinct_orderings
from rombit.harness import generate_instances, scale_intervals
from rombit.intervals import (
    adaptive_slots_run,
    feasible_selection,
    offline_opt_intervals,
    rom_adaptive,
    rom_single_length,
)


def weight(order, chosen):
    return sum(order[ix][1] for ix in chosen)


def accepted(run):
    return run.prefix + (run.a if run.bit == 1 else run.b)


def opt(rel, order):
    return offline_opt_intervals(rel, order)[0]


def end_sorted_opt(triples):
    """Reference: the classic weighted interval scheduling DP over
    (release, length, weight) triples sorted by end."""
    ivs = sorted(triples, key=lambda t: (t[0] + t[1], t[0]))
    ends = [r + L for r, L, _ in ivs]
    best = [0] * (len(ivs) + 1)
    for j, (r, _, w) in enumerate(ivs, start=1):
        pred = bisect.bisect_right(ends, r, 0, j - 1)
        best[j] = max(best[j - 1], w + best[pred])
    return best[-1]


def offline_opt_subsets(triples):
    """Independent cross-check: brute force over subsets of (release,
    length, weight) triples (small n only)."""
    n = len(triples)
    if n > 14:
        raise InputError("subset cross-check limited to n <= 14")
    best = 0
    for mask in range(1 << n):
        chosen = [triples[i] for i in range(n) if mask >> i & 1]
        if all(r1 + l1 <= r2 or r2 + l2 <= r1
               for (r1, l1, _), (r2, l2, _) in combinations(chosen, 2)):
            best = max(best, sum(w for _, _, w in chosen))
    return best


def test_dp_examples():
    assert offline_opt_intervals([0, 3], [(2, 5), (2, 7)]) == [12, 7, 0]
    assert opt([0, 1], [(4, 3), (4, 5)]) == 5
    assert offline_opt_intervals([], []) == [0]


def test_dp_against_subset_enumeration():
    rng = random.Random(1)
    for _ in range(120):
        n = rng.randint(1, 9)
        triples = sorted((rng.randrange(0, 20), rng.randint(1, 6), rng.randint(1, 9))
                         for _ in range(n))
        rel, order = [r for r, _, _ in triples], [(L, w) for _, L, w in triples]
        assert opt(rel, order) == offline_opt_subsets(triples)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 24), st.integers(1, 8), st.integers(1, 9)),
                max_size=10))
def test_suffix_optima_match_references(triples):
    triples.sort(key=lambda t: t[0])  # the release column is sorted
    rel, order = [r for r, _, _ in triples], [(L, w) for _, L, w in triples]
    suffix_opt = offline_opt_intervals(rel, order)
    assert len(suffix_opt) == len(order) + 1 and suffix_opt[-1] == 0
    for k in range(len(order)):
        assert suffix_opt[k] == end_sorted_opt(triples[k:]) == offline_opt_subsets(triples[k:])
        # OPT of a prefix is the oracle on the prefix of the order
        assert opt(rel, order[:k]) == end_sorted_opt(triples[:k])


def test_rom_single_length_branch_values():
    rel, order = [0, 2, 15], [(10, 1), (10, 1), (10, 3)]
    run = rom_single_length(rel, order)
    assert run.bit == 1  # identical pair then distinct at odd index 3
    odd_value = weight(order, run.prefix + run.a)
    even_value = weight(order, run.prefix + run.b)
    assert (odd_value, even_value) == (1, 4)
    assert run.value == 1
    assert opt(rel, order) == 4
    # per-order covering chain: 2*prefix + odd + even >= OPT
    pre = weight(order, run.prefix)
    assert 2 * pre + odd_value + even_value >= 4


def test_rom_single_length_identical_prefix_is_opt():
    rel, order = [0, 1, 5], [(4, 2), (4, 2), (4, 2)]
    run = rom_single_length(rel, order)
    assert run.bit is None
    assert run.value == opt(rel, order)


def test_adaptive_hand_trace():
    a, b, slots = adaptive_slots_run([0, 2, 5], [(4, 16), (4, 16), (3, 9)], 0,
                                     "c_benevolent")
    assert a == [1]
    assert b == [0, 2]
    assert slots == [(0, 4), (4, 6), (6, 8)]


def test_slot_winner_ties_keep_the_earliest_arrival():
    # equal weights in one slot select the same value either way, so only
    # the chosen indices show the tie rule
    rel, order = [0, 1, 2, 6], [(4, 1), (4, 2), (4, 2), (4, 3)]
    run = rom_single_length(rel, order)
    assert (run.bit, run.anchor_index) == (0, 0)
    assert (run.a, run.b) == ([1], [0, 3])
    a, b, slots = adaptive_slots_run([0, 0, 2, 3], [(4, 16)] * 4, 0, "c_benevolent")
    assert (a, b, slots) == ([2], [0], [(0, 4), (4, 6)])


def test_adaptive_degenerate_phase():
    a, b, _ = adaptive_slots_run([3], [(5, 25)], 0, "c_benevolent")
    assert b == [0]
    assert a == []


def test_rom_adaptive_prefix_plus_heavy():
    # prefix of pseudo-identical intervals, then one heavier distinct interval
    rel, order = [0, 5, 12], [(4, 2), (4, 2), (4, 9)]
    run = rom_adaptive(rel, order, "monotone")
    assert run.anchor_index == 1
    best = opt(rel, order)
    assert max(weight(order, run.prefix + run.a), weight(order, run.prefix + run.b)) == best


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
            run = rom_adaptive(rel, order, "monotone")
            assert feasible_selection(rel, order, run.a)
            assert feasible_selection(rel, order, run.b)
            if run.anchor_index is not None:
                suf = offline_opt_intervals(rel, order)[run.anchor_index]
                assert weight(order, run.a + run.b) >= suf


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
            run = rom_adaptive(rel, order, variant)
            total_alg += run.value
            total_opt += opt(rel, order)
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
        run = rom_single_length(rel, order)
        suffix_opt = offline_opt_intervals(rel, order)
        total_alg += run.value
        total_opt += suffix_opt[0]
        count += 1
        ai = run.anchor_index
        pre = opt(rel, order[:ai])
        suf = suffix_opt[ai]
        assert weight(order, run.prefix) == pre
        assert suffix_opt[0] <= pre + suf
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
        for ws_order in distinct_orderings(ws):
            order = [(4, w) for w in ws_order]
            run = rom_single_length(rel, order)
            assert feasible_selection(rel, order, accepted(run))
            assert run.value == weight(order, accepted(run))
            suffix_opt = offline_opt_intervals(rel, order)
            if run.anchor_index is None:
                assert run.value == suffix_opt[0]
                continue
            ai = run.anchor_index
            pre = opt(rel, order[:ai])
            suf = suffix_opt[ai]
            assert weight(order, run.prefix) == pre
            assert suffix_opt[0] <= pre + suf
            assert suf <= run.cover


@pytest.mark.parametrize("variant", ["single", "monotone", "c_benevolent"])
def test_branch_values_weigh_prefix_plus_branch(variant):
    """``one`` weighs the prefix plus A and ``zero`` the prefix plus B, on
    every order of generated instances and of one with no bit; the reported
    value weighs the accepted arrivals."""
    insts = generate_instances("interval", "uniform",
                               {"n": [3, 4, 5], "variant": variant, "support": 2}, 8, 21)
    insts.append(generate_instances("interval", "uniform",
                                    {"n": 3, "variant": variant, "support": 1}, 1, 1)[0])
    bits = set()
    for inst in insts:
        view = scale_intervals(inst)
        for order in distinct_orderings(view.column):
            if variant == "single":
                run = rom_single_length(view.releases, order)
            else:
                run = rom_adaptive(view.releases, order, variant)
            bits.add(run.bit)
            assert run.one == weight(order, run.prefix + run.a)
            assert run.zero == weight(order, run.prefix + run.b)
            assert run.value == weight(order, accepted(run))
    assert bits == {None, 0, 1}
