"""Knapsack subroutines, ROM runs, oracle, and revocation experiment."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rombit.core import CapacityError, InputError, distinct_orderings
from rombit.extraction import harvest
from rombit.harness import generate_instances, scale_knapsack
from rombit.knapsack import (
    exact_revocation_tail,
    greedy_density_run,
    offline_opt_scaled,
    place_a1,
    place_a2,
    revocation_experiment,
    rom_general,
    rom_proportional,
    rom_proportional_tworbin,
    subroutine_run,
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


def run_sub(weights, cap, place):
    """(contents, total, peak) of A1 or A2 on these arrivals."""
    cls = [weight_class(w, cap) for w in weights]
    return subroutine_run(weights, cls, cap, place)


def held(weights, cap, place):
    """The sorted weights A1 or A2 holds after these arrivals."""
    return sorted(w for w, _ in run_sub(weights, cap, place)[0])


def test_a1_hand_traces():
    assert held([55], 100, place_a1) == [55]
    # M4 arrives: keeper switches, the M3 item is evicted
    assert held([55, 62], 100, place_a1) == [62]
    # large: everything else evicted, and the packing is complete, so a
    # later small item that would fit beside it is not packed
    assert held([4, 8], 10, place_a1) == [8]
    assert held([4, 8, 2], 10, place_a1) == [8]
    # the M4 keeper stays when it ties the light items alone (2+1 = 1+1+1)
    assert held([1, 1, 1, 2], 3, place_a1) == [1, 2]


def test_a1_keeps_small_over_duplicate_medium():
    # two M3 items cannot coexist; the duplicate goes before any small item
    assert run_sub([6, 6, 11, 11, 11], 20, place_a1)[1] == 17


def test_a2_hand_traces():
    assert held([45, 31, 31], 100, place_a2) == [31, 45]
    # not complete: a later item still changes the contents (90 >= 9/10)
    assert held([45, 31, 31, 14], 100, place_a2) == [14, 31, 45]
    # a subset of weight 95 >= 90 completes the packing: a later 3 would
    # make 98, and is not packed
    assert run_sub([50, 45], 100, place_a2)[1] == 95
    # exactly 9/10 completes it too
    assert held([5, 4, 1], 10, place_a2) == [4, 5]
    assert held([50, 45, 3], 100, place_a2) == [45, 50]
    assert held([2, 8], 10, place_a2) == [8]
    assert held([2, 8, 1], 10, place_a2) == [8]
    # no subset reaches 9 of 10 (5+3 = 8), so a small item goes: of two
    # equal ones, the later arrival
    assert sorted(run_sub([5, 3, 3], 10, place_a2)[0]) == [(3, 1), (5, 0)]


def test_rom_proportional_trivials():
    run = rom_proportional([2] * 6, 10)
    assert run.value == 10 and run.bit is None
    run = rom_proportional([75, 20], 100)
    assert run.value == 75 and run.one == 75 and run.zero == 75


def test_rom_proportional_matches_a_subroutine():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(2, 7)
        cap = 20
        ws = [rng.randint(1, cap) for _ in range(n)]
        run = rom_proportional(ws, cap)
        a1 = reference_a1(ws, cap)[-1][0]
        a2 = reference_a2(ws, cap)[-1][0]
        assert run.value in (sum(w for w, _ in a1), sum(w for w, _ in a2))
        assert sorted(run.contents) in (a1, a2)


def test_tworbin_cases():
    run = rom_proportional_tworbin([3, 3, 4], 10)  # room for one more copy
    assert not run.early_exit and run.bit == 1 and run.value == 10
    run = rom_proportional_tworbin([3, 3, 3, 4], 10)  # 1 - W < w
    assert run.early_exit and run.value == 9 and run.revoked == 0
    run = rom_proportional_tworbin([3, 3, 4], 10)
    assert run.revoked == 2  # all prefix copies revoked
    assert run.zero == 0  # the 4 still fits the simulated bin 1
    run = rom_proportional_tworbin([3, 3, 8], 10)
    assert run.zero == 8  # overflows bin 1, lands in bin 2


def test_rom_general_example():
    run = rom_general([(3, 3), (3, 3), (5, 9)], 10)
    assert run.one == 12 and run.zero == 9
    assert run.bit == 1 and run.value == 12
    run = rom_general([(5, 9)], 10)
    assert run.value == 9  # single item: both branches keep it
    # bit 0 takes MAX, and the record still holds GREEDY on the full order
    run = rom_general([(4, 1), (4, 2), (6, 12)], 10)
    assert run.bit == 0 and run.value == 12
    assert run.one == 14  # the prefix alone would give 1


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
            run = rom_proportional(order, cap)
            assert run.peak <= cap  # neither knapsack overflowed at any step
            assert 5 * (run.one + run.zero) >= 7 * opt
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
    enough that some items outweigh it.  A third of the draws instead take
    up to 14 copies of 1-3 base pairs, with caps and values up to 10**6 and
    weights up to the cap or to a quarter or a tenth of it, so that many
    copies of one item fit."""
    if draw(st.integers(0, 2)) == 0:
        cap = draw(st.integers(1, 10**6))
        top = max(1, cap // draw(st.sampled_from([1, 4, 10])))
        base = draw(st.lists(st.tuples(st.integers(1, top), st.integers(1, 10**6)),
                             min_size=1, max_size=3))
        return draw(st.lists(st.sampled_from(base), min_size=1, max_size=14)), cap
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


@settings(max_examples=300, deadline=None)
@given(knapsack_cases(max_n=10))
def test_general_branches_are_greedy_and_max(case):
    """``one`` is GREEDY on the full order and ``zero`` is MAX, whatever the
    bit; the bit is COMBINE's on (value, weight) keys."""
    items, cap = case
    run = rom_general(items, cap)
    assert run.bit == harvest((v, w) for w, v in items)[0]
    assert run.one == greedy_density_reference(items, cap)[0]
    assert run.zero == max(v for _, v in items)


def test_freeze_monotonicity():
    # once A2 completes its packing (a large arrival, or ``place_a2`` says
    # so), no later arrival changes its contents
    rng = random.Random(8)
    for _ in range(30):
        ws = [rng.randint(1, 20) for _ in range(7)]
        cls = [weight_class(w, 20) for w in ws]
        runs = [subroutine_run(ws[:k], cls, 20, place_a2)[0] for k in range(8)]
        for k, w in enumerate(ws, start=1):
            q = runs[k - 1] + [(w, k - 1)]
            if cls[k - 1] == "L" or place_a2(q, cls, 20, "M4" in cls[:k])[2]:
                assert runs[k:] == [runs[k]] * (8 - k)
                break


def test_exact_revocation_tail():
    assert exact_revocation_tail(10, Fraction(1, 2)) == Fraction(5, 9)
    assert exact_revocation_tail(10, 1) == 0
    for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        m = math.ceil(alpha * 10)
        assert exact_revocation_tail(10, alpha) == Fraction(10 - m, 9)
    assert exact_revocation_tail(2, Fraction(1, 2)) == 1


@pytest.mark.parametrize("call, match", [
    (lambda: exact_revocation_tail(1, Fraction(1, 2)), None),
    (lambda: exact_revocation_tail(0, Fraction(1, 2)), None),
    (lambda: revocation_experiment(0, Fraction(1, 2), Fraction(1, 2), 10, 0), None),
    (lambda: revocation_experiment(1, Fraction(1, 2), Fraction(1, 2), 10, 0), None),
    (lambda: revocation_experiment(5, Fraction(1, 2), Fraction(1, 2), 0, 0), None),
    (lambda: exact_revocation_tail(10, 0), r"^alpha must lie in \(0, 1\]$"),
    (lambda: revocation_experiment(5, 2, Fraction(1, 2), 10, 0),
     r"^epsilon must lie in \(0, 1\]$"),
    (lambda: revocation_experiment(5, Fraction(1, 2), Fraction(3, 2), 10, 0),
     r"^alpha must lie in \(0, 1\]$"),
], ids=["tail-n1", "tail-n0", "experiment-n0", "experiment-n1", "experiment-trials0",
        "tail-alpha0", "experiment-eps-over-one", "experiment-alpha-over-one"])
def test_revocation_helpers_reject_impossible_sizes(call, match):
    # the instance is n-1 copies of eps/n plus one unit item, so n >= 2; the
    # experiment's epsilon and both helpers' alpha must lie in (0, 1]
    with pytest.raises(InputError, match=match):
        call()


def test_revocation_counts_match_algorithm():
    # the experiment's position shortcut agrees with real forced-bit runs
    n = 10
    inst = generate_instances("knapsack_proportional", "adversarial",
                              {"n": n, "epsilon": Fraction(1, 2)}, 1, 0)[0]
    view = scale_knapsack(inst, proportional=True)
    ws, cap = view.column, view.cap
    assert (ws, cap) == ([1] * 9 + [20], 20)
    copy_w, unit_w = ws[0], ws[-1]
    for pos in range(1, n):
        order = [copy_w] * pos + [unit_w] + [copy_w] * (n - 1 - pos)
        run = rom_proportional_tworbin(order, cap)
        assert not run.early_exit
        assert run.revoked == pos


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
    peak = 0
    sums = [0, 0]
    for k in range(1, len(ws) + 1):
        runs = [run_sub(ws[:k], cap, place) for place in (place_a1, place_a2)]
        sums = [sum(x for x, _ in contents) for contents, _, _ in runs]
        assert [total for _, total, _ in runs] == sums
        peak = max(peak, *sums)
        assert max(p for _, _, p in runs) == peak
    run = rom_proportional(ws, cap)
    assert run.peak == peak
    assert [run.one, run.zero] == sums


# ---------------------------------------------------------------------------
# A1 and A2 written again from their docstrings: Fraction classes, subsets
# enumerated without pruning, and evictions picked one at a time
# ---------------------------------------------------------------------------


def reference_class(w, cap):
    """The printed class of the weight w/cap, compared as a Fraction."""
    x = Fraction(w, cap)
    if x <= Fraction(3, 10):
        return "S"
    if x <= Fraction(2, 5):
        return "M1"
    if x <= Fraction(1, 2):
        return "M2"
    if x < Fraction(3, 5):
        return "M3"
    return "M4" if x < Fraction(7, 10) else "L"


def reference_max_subset(entries, cap):
    """The heaviest subset of (weight, arrival) entries within cap, over
    every subset of the entries sorted by (-weight, arrival); among equally
    heavy ones, the first that an include-first search meets, which is the
    lexicographically least tuple of sorted positions."""
    order = sorted(entries, key=lambda e: (-e[0], e[1]))
    subsets = [c for k in range(len(order) + 1)
               for c in itertools.combinations(range(len(order)), k)]
    fitting = [c for c in subsets if sum(order[j][0] for j in c) <= cap]
    best = min(fitting, key=lambda c: (-sum(order[j][0] for j in c), c))
    return [order[j] for j in best]


def reference_a1_place(q, cap, seen_m4):
    """One heavy-medium keeper, the smallest of the preferred class (of the
    other heavy-medium class if none is held; earliest on equal weights),
    kept unless the lighter items alone fit more weight without it."""
    preferred = "M4" if seen_m4 else "M3"
    heavy = [e for e in q if reference_class(e[0], cap) in ("M3", "M4")]
    lights = [e for e in q if e not in heavy]
    alone = reference_max_subset(lights, cap)
    if not heavy:
        return alone, False
    pick = [e for e in heavy if reference_class(e[0], cap) == preferred] or heavy
    keeper = min(pick, key=lambda e: (e[0], e[1]))
    beside = reference_max_subset(lights, cap - keeper[0])
    if keeper[0] + sum(w for w, _ in beside) >= sum(w for w, _ in alone):
        return [keeper] + beside, False
    return alone, False


def reference_a2_place(q, cap, seen_m4):
    """Complete the packing with the heaviest fitting subset once it weighs
    at least 9/10 (8/10 after an M4); else keep the smallest M2 and M1 and
    evict, while over capacity, the heaviest other medium and then the
    lightest small item, the latest arrival first among equal weights."""
    best = reference_max_subset(q, cap)
    if sum(w for w, _ in best) >= (Fraction(8, 10) if seen_m4 else Fraction(9, 10)) * cap:
        return best, True
    kept = q[:]
    protected = []
    for cls in ("M2", "M1"):
        members = [e for e in kept if reference_class(e[0], cap) == cls]
        if members:
            protected.append(min(members, key=lambda e: (e[0], e[1])))
    while sum(w for w, _ in kept) > cap:
        mediums = [e for e in kept
                   if reference_class(e[0], cap) != "S" and e not in protected]
        if mediums:
            kept.remove(max(mediums, key=lambda e: (e[0], e[1])))
        else:
            smalls = [e for e in kept if reference_class(e[0], cap) == "S"]
            kept.remove(min(smalls, key=lambda e: (e[0], -e[1])))
    return kept, False


def reference_run(weights, cap, place):
    """(sorted contents, frozen) after every prefix: a large arrival evicts
    everything else and freezes; a frozen knapsack ignores what follows."""
    contents, frozen, seen_m4, states = [], False, False, []
    for i, w in enumerate(weights):
        if not frozen:
            cls = reference_class(w, cap)
            if cls == "L":
                contents, frozen = [(w, i)], True
            else:
                seen_m4 = seen_m4 or cls == "M4"
                contents, frozen = place(contents + [(w, i)], cap, seen_m4)
        states.append((sorted(contents), frozen))
    return states


def reference_a1(weights, cap):
    return reference_run(weights, cap, reference_a1_place)


def reference_a2(weights, cap):
    return reference_run(weights, cap, reference_a2_place)


@st.composite
def proportional_cases(draw):
    """(cap, weights): up to 10 weights in 1..cap, half of the time drawn
    from a pool of at most 4, so that equal weights and ties are common.
    Half of the caps are 10, 20 or 30, where every class boundary and
    freeze threshold (tenths of the cap) is a weight."""
    cap = draw(st.one_of(st.integers(1, 30), st.sampled_from([10, 20, 30])))
    weights = st.integers(1, cap)
    if draw(st.booleans()):
        weights = st.sampled_from(draw(st.lists(weights, min_size=1, max_size=4)))
    return cap, draw(st.lists(weights, max_size=10))


@settings(max_examples=300, deadline=None)
@given(proportional_cases())
def test_subroutines_match_reference(case):
    """After every prefix, A1's and A2's contents and totals, the run's
    contents and its peak equal the references'."""
    cap, ws = case
    ref1, ref2 = reference_a1(ws, cap), reference_a2(ws, cap)
    peak = 0
    for k in range(1, len(ws) + 1):
        prefix = ws[:k]
        run = rom_proportional(prefix, cap)
        for place, ref, value in ((place_a1, ref1, run.one),
                                  (place_a2, ref2, run.zero)):
            contents, total, _ = run_sub(prefix, cap, place)
            want = ref[k - 1][0]
            assert sorted(contents) == want
            assert total == value == sum(w for w, _ in want)
            peak = max(peak, total)
        assert run.peak == peak
        side = ref2 if run.bit == 0 else ref1
        assert sorted(run.contents) == side[k - 1][0]


def reference_tworbin(weights, cap, bit):
    """The two-bin run with its bit forced to ``bit`` when the order has
    one: bin 2 is filled only on bit 0.  Returns (contents, value, the
    bin-1 items bit 0 revokes, early exit)."""
    real, switch = harvest(weights)
    if real is None:
        bit = None
    bin1, w1, bin2, w2 = [], 0, [], 0
    early_exit = False
    for i, w in enumerate(weights):
        if i == switch:
            if w1 > 0 and cap - w1 < weights[0]:
                early_exit = True
                break
            prefix = len(bin1)
        if w1 + w <= cap:
            bin1.append((w, i))
            w1 += w
        elif bit == 0 and i >= switch and w2 + w <= cap:
            bin2.append((w, i))
            w2 += w
    if bit == 0 and not early_exit:
        return bin2, w2, prefix, False
    return bin1, w1, 0, early_exit


@settings(max_examples=300, deadline=None)
@given(proportional_cases())
def test_tworbin_branches_match_forced_bit_reference(case):
    """``one`` and ``zero`` are the values of the reference run forced to
    bit 1 and to bit 0, ``revoked`` is bit 0's count whatever the bit, and
    the reported bin is the reference's at the order's own bit."""
    cap, ws = case
    run = rom_proportional_tworbin(ws, cap)
    assert run.one == reference_tworbin(ws, cap, 1)[1]
    if run.bit is None:
        assert (run.revoked, run.early_exit) == (0, False)
    else:
        _, zero, revoked, early_exit = reference_tworbin(ws, cap, 0)
        assert (run.zero, run.revoked, run.early_exit) == (zero, revoked, early_exit)
    contents, value, _, _ = reference_tworbin(ws, cap, run.bit)
    assert (run.contents, run.value) == (contents, value)
