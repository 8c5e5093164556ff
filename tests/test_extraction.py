"""Extraction processes and bias oracles."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rombit.core import (
    CapacityError,
    InputError,
    _mix64,
    distinct_orderings,
    make_instance,
    split_seed,
)
from rombit.extraction import (
    _CHUNK,
    DRAW_GUARD,
    MODES,
    Profile,
    _lane_consts,
    _split_lanes,
    _unpack,
    bias_curve,
    bias_family,
    combine_predicted,
    empirical_bias,
    exact_bias,
    exact_distinct_conditional,
    harvest,
    process1_predicted,
)
from stream_reference import reference_counts

A, B = (Fraction(0),), (Fraction(1),)


def family_counts(mode, param, n):
    """``bias_family``'s instance as a key -> count dict and its first key,
    for parameters the family accepts: process1 has floor(param*n) copies
    of key 0 and the rest of key 1; combine floor(param*n) copies of the
    first key 0 and distinct keys split as evenly as possible below and
    above it; distinct_unbiased n distinct keys."""
    if mode == "process1":
        c0 = int(Fraction(param) * n)
        return {(0,): c0, (1,): n - c0}, None
    if mode == "combine":
        copies = int(Fraction(param) * n)
        below = (n - copies) // 2
        counts = {(0,): copies}
        counts.update(((-i,), 1) for i in range(1, below + 1))
        counts.update(((i,), 1) for i in range(1, n - copies - below + 1))
        return counts, (0,)
    return {(i,): 1 for i in range(n)}, None


def run_lengths(counts, first_key=None):
    """The Profile of a counts dict, written apart from the package: its
    counts in key order as (count, classes) runs, and ``first_key``'s class."""
    keys, runs = sorted(counts), []
    for k in keys:
        if runs and runs[-1][0] == counts[k]:
            runs[-1][1] += 1
        else:
            runs.append([counts[k], 1])
    first = None if first_key is None else keys.index(tuple(first_key))
    return Profile(tuple(map(tuple, runs)), first)


def enumerated_outcomes(counts, mode):
    """(first key, second key, bit) of every distinct order of a counts dict,
    the bit from ``harvest`` or InputError where it raises, and None for a
    missing key: the enumeration the exact oracles must equal."""
    out = []
    for order in distinct_orderings(k for k, c in counts.items() for _ in range(c)):
        try:
            bit = harvest(order, mode)[0]
        except InputError:
            bit = InputError
        first, second = (*order, None, None)[:2]
        out.append((first, second, bit))
    return out


def test_process1_rule():
    assert harvest([A, B], "process1") == (1, 1)  # change at even index
    assert harvest([A, A, B], "process1") == (0, 2)  # change at index 3


def test_process1_exact_aab():
    assert exact_bias([A, A, B], "process1").prob_one == Fraction(2, 3)
    assert exact_bias([A, B], "process1").prob_one == 1


def test_distinct_unbiased():
    assert harvest([(1,), (2,)], "distinct_unbiased") == (1, 1)
    assert harvest([(2,), (1,)], "distinct_unbiased") == (0, 1)
    with pytest.raises(InputError):
        harvest([(2,), (2,)], "distinct_unbiased")
    rep = exact_bias([(i,) for i in range(4)], "distinct_unbiased")
    assert rep.prob_one == Fraction(1, 2)


def test_combine_rule():
    assert harvest([B, A], "combine") == (1, 1)  # second smaller than first
    assert harvest([A, A, B], "combine") == (1, 2)  # first distinct item at odd index
    rep = exact_bias([A, A, B], "combine")
    assert rep.prob_one == Fraction(2, 3)
    # conditioned on the first arrival: AAB gives 1, ABA 0; BAA gives 1
    assert exact_bias([A, A, B], "combine", first_key=A).prob_one == Fraction(1, 2)
    assert exact_bias([A, A, B], "combine", first_key=B).prob_one == 1
    with pytest.raises(InputError):
        exact_bias([A, A, B], "combine", first_key=(Fraction(2),))


def test_finite_n_bias_extremes():
    # 2 - sqrt(2) and 2/3 are limits of families, not finite-n bounds: over
    # every key multiplicity, combine's Pr(b=1) runs from 1/2 (distinct keys)
    # up to 2/3 at n = 3, 4, 3/5 at n = 5..8 and 25/42 at n = 9, 10, and
    # process1 reaches 1
    def partitions(n, top):
        if n == 0:
            yield ()
        for c in range(min(n, top), 0, -1):
            for rest in partitions(n - c, c):
                yield (c, *rest)

    for n, hi in ((3, Fraction(2, 3)), (4, Fraction(2, 3)),
                  *((n, Fraction(3, 5)) for n in range(5, 9)),
                  (9, Fraction(25, 42)), (10, Fraction(25, 42))):
        probs = [exact_bias({(k,): c for k, c in enumerate(p)}, "combine").prob_one
                 for p in partitions(n, n) if len(p) > 1]
        assert (min(probs), max(probs)) == (Fraction(1, 2), hi), n
    assert exact_bias(family_counts("distinct_unbiased", None, 5)[0], "process1").prob_one == 1


def test_exact_bias_no_bit_mass():
    rep = exact_bias([A, A, A], "combine")
    assert rep.no_bit == 1
    assert rep.prob_one == 0


def test_pairwise_bits():
    # N unbiased bits from 2N items: bit k is harvest's on items 2k-1 and 2k
    def pairwise_bits(keys):
        return [harvest(keys[i:i + 2], "distinct_unbiased")[0] for i in range(0, len(keys), 2)]

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
    rep = empirical_bias(family_counts("process1", Fraction(1, 2), 10**4)[0], "process1", 20000,
                         5)
    assert abs(rep.prob_one - 2 / 3) <= 0.02
    assert rep.stderr < 0.005


def test_empirical_bias_combine_worst_case():
    counts = family_counts("combine", Fraction(4142, 10000), 10**4)[0]
    rep = empirical_bias(counts, "combine", 20000, 7, first_key=(Fraction(0),))
    assert abs(rep.prob_one - (2 - math.sqrt(2))) <= 0.02


def test_empirical_bias_distinct():
    rep = empirical_bias(family_counts("distinct_unbiased", None, 10**4)[0], "distinct_unbiased",
                         20000, 9)
    assert abs(rep.prob_one - 0.5) <= 0.015
    with pytest.raises(InputError):
        empirical_bias({(0,): 2, (1,): 1}, "distinct_unbiased", 10, 0)


def test_empirical_bias_determinism():
    counts = family_counts("process1", Fraction(1, 3), 1000)[0]
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
    inst = make_instance("knapsack_general", [{"value": v, "weight": w} for v, w in keys])
    sources = (counts, keys, inst, dict(shuffled))
    for mode, first_key in (("process1", None), ("combine", None),
                            ("process1", keys[0]), ("combine", keys[0])):
        reps = [empirical_bias(src, mode, 400, 13, first_key=first_key) for src in sources]
        assert all(rep == reps[0] for rep in reps), (mode, first_key)
    distinct = [(Fraction(i),) for i in range(30)]
    rng.shuffle(distinct)
    sources = (family_counts("distinct_unbiased", None, 30)[0], distinct,
               dict.fromkeys(distinct, 1))
    reps = [empirical_bias(src, "distinct_unbiased", 400, 13) for src in sources]
    assert all(rep == reps[0] for rep in reps)


def test_monte_carlo_matches_exact_bias():
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
        first_keys = [None, keys[0]]
        for first_key in first_keys:
            exact = exact_bias(keys, mode, first_key=first_key)
            rep = empirical_bias(keys, mode, trials, case, first_key=first_key)
            for got, want in ((rep.prob_one, float(exact.prob_one)),
                              (rep.no_bit, float(exact.no_bit))):
                tol = 4.5 * math.sqrt(want * (1 - want) / trials) + 1e-3
                assert abs(got - want) <= tol, (keys, mode, first_key, rep, want)


def _outcome(route):
    """The report ``route()`` returns, or the text of the InputError it raises."""
    try:
        return route()
    except InputError as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3)), st.integers(1, 8)).filter(
           lambda counts: sum(counts.values()) <= 8),
       st.sampled_from(MODES))
@example({}, "combine")  # no item: no bit
@example({(0,): 1}, "distinct_unbiased")  # one item: no bit
@example({(0,): 2, (1,): 1}, "distinct_unbiased")  # a repeated key
def test_exact_and_monte_carlo_accept_the_same_inputs(counts, mode):
    # on every multiset of n <= 8, the empty one too, unconditioned and from
    # each first key, both routes raise the same InputError text or both
    # report, and a bit that is certain, or certainly absent, is the same on
    # both, as is n
    for first_key in (None, *counts):
        exact = _outcome(lambda: exact_bias(counts, mode, first_key=first_key))
        rep = _outcome(lambda: empirical_bias(counts, mode, 20, 3, first_key=first_key))
        if isinstance(exact, str) or isinstance(rep, str):
            assert exact == rep, (counts, mode, first_key)
        elif exact.prob_one in (0, 1) and exact.no_bit in (0, 1):
            assert (rep.prob_one, rep.no_bit, rep.n_items) == (
                exact.prob_one, exact.no_bit, exact.n_items)


def test_monte_carlo_distinct_unbiased_honours_first_key():
    # the first arrival's rank is fixed; the bit is 1 when the second ranks
    # above it, so Pr(b=1) = (n-1-rank)/(n-1) exactly, also when only the
    # other keys repeat
    distinct = [(Fraction(v),) for v in (0, 1, 2)]
    repeated = [A, B, (Fraction(2),), (Fraction(2),)]  # one key below B, two above
    trials = 4000
    for keys, first, want in ((distinct, distinct[0], Fraction(1)),
                              (distinct, distinct[1], Fraction(1, 2)),
                              (distinct, distinct[2], Fraction(0)),
                              (repeated, B, Fraction(2, 3))):
        assert exact_bias(keys, "distinct_unbiased", first_key=first).prob_one == want
        rep = empirical_bias(keys, "distinct_unbiased", trials, 5, first_key=first)
        tol = 4.5 * math.sqrt(want * (1 - want) / trials) + 1e-3
        assert abs(rep.prob_one - want) <= tol, (first, rep)
        assert rep.no_bit == 0


@settings(max_examples=250, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=8).filter(lambda cs: sum(cs) <= 8),
       st.sampled_from(MODES))
@example([2, 1, 1], "combine")  # below != above for the first class
def test_exact_oracles_match_enumeration(sizes, mode):
    # the law of the first unlike arrival equals enumeration through harvest
    # on every multiset of n <= 8, unconditioned and from each first key,
    # from a counts dict and from its Profile: equal Fractions, or the
    # InputError enumeration raises; the distinct conditional likewise
    counts = {(k,): c for k, c in enumerate(sizes)}  # class counts in key order
    outcomes = enumerated_outcomes(counts, mode)
    for first_key in (None, *counts):
        bits = [b for k, _, b in outcomes if first_key is None or k == first_key]
        for source, key in ((counts, first_key), (run_lengths(counts, first_key), None)):
            if InputError in bits:
                with pytest.raises(InputError):
                    exact_bias(source, mode, first_key=key)
                continue
            rep = exact_bias(source, mode, first_key=key)
            assert (rep.prob_one, rep.no_bit, rep.n_items) == (
                Fraction(bits.count(1), len(bits)), Fraction(bits.count(None), len(bits)),
                sum(sizes)), (counts, mode, first_key)
        pairs = [b for k, s, b in outcomes
                 if s not in (None, k) and first_key in (None, k)]
        want = Fraction(pairs.count(1), len(pairs)) if pairs else None
        assert exact_distinct_conditional(run_lengths(counts, first_key), mode) == want
        if first_key is None:
            assert exact_distinct_conditional(counts, mode) == want


def pairwise_conditional(counts, mode, first=None):
    """Pr(b=1 | first two arrivals distinct) by ``harvest`` on each ordered
    pair of distinct classes (class indices in key order, ``first`` first
    when named), weighted by the product of their counts; None if no pair."""
    ones = total = 0
    for (a, ca), (b, cb) in itertools.permutations(enumerate(counts), 2):
        if first in (None, a):
            total += ca * cb
            ones += ca * cb * harvest((a, b), mode)[0]
    return Fraction(ones, total) if total else None


@st.composite
def _counts_and_first(draw):
    """Class counts in key order and a named first class, or None."""
    counts = draw(st.lists(st.integers(1, 2**40), min_size=1, max_size=9))
    return counts, draw(st.one_of(st.none(), st.integers(0, len(counts) - 1)))


@settings(max_examples=300, deadline=None)
@given(_counts_and_first(), st.sampled_from(MODES))
@example(([1], None), "combine")  # one class: no pair, so undefined
@example(([3, 1, 2], 1), "combine")  # below != above for the first class
def test_distinct_conditional_matches_the_pairwise_sum(case, mode):
    # with no first class and with each named one, from a Profile of the
    # class counts in key order and, unnamed, from its counts dict
    counts, first = case
    by_key = {(k,): c for k, c in enumerate(counts)}
    prof = run_lengths(by_key, None if first is None else (first,))
    want = pairwise_conditional(counts, mode, first)
    assert exact_distinct_conditional(prof, mode) == want
    if first is None:
        assert exact_distinct_conditional(by_key, mode) == want


def test_distinct_conditional_at_two_thousand_classes():
    # the pairwise sum took about 3 s here; the class-count sum is O(groups)
    rng = random.Random(2000)
    counts = [rng.randint(1, 5) for _ in range(2000)]
    n, by_key = sum(counts), {(k,): c for k, c in enumerate(counts)}
    start = time.perf_counter()
    assert exact_distinct_conditional(by_key, "process1") == 1
    assert exact_distinct_conditional(by_key, "combine") == Fraction(1, 2)
    assert exact_distinct_conditional(by_key, "distinct_unbiased") == Fraction(1, 2)
    for first in (0, 777, 1999):
        below, c = sum(counts[:first]), counts[first]
        prof = run_lengths(by_key, (first,))
        assert exact_distinct_conditional(prof, "combine") == Fraction(below, n - c)
        assert exact_distinct_conditional(prof, "distinct_unbiased") == Fraction(
            n - c - below, n - c)
    assert time.perf_counter() - start < 1
    with pytest.raises(InputError, match="unknown mode"):
        exact_distinct_conditional(by_key, "bogus")


@settings(max_examples=150, deadline=None)
@given(
    # counts all in 1..6, or all in [2**61, 2**62], where Lemire's method
    # rejects up to half the draws; four keys keep n <= 2**64, and one range
    # per dict keeps a trial short
    st.sampled_from([(1, 6, 5), (2**61, 2**62, 4)]).flatmap(
        lambda r: st.dictionaries(st.tuples(st.integers(-3, 3)), st.integers(r[0], r[1]),
                                  min_size=1, max_size=r[2])),
    st.sampled_from(MODES),
    st.integers(-2**70, 2**70),
    st.data(),
)
def test_empirical_bias_matches_counter_stream_reference(counts, mode, seed, data):
    # every lane reads the draws CounterStream(seed, t) gives, redraws too
    if mode == "distinct_unbiased":
        counts = dict.fromkeys(counts, 1)
        if len(counts) < 2:
            counts[(9,)] = 1
    first_key = data.draw(st.sampled_from([None, *sorted(counts)]))
    trials = 200
    rep = empirical_bias(counts, mode, trials, seed, first_key=first_key)
    ones, nobit = reference_counts(counts, mode, trials, seed, first_key=first_key)
    p = ones / trials
    assert (rep.prob_one, rep.no_bit, rep.stderr) == (
        p, nobit / trials, math.sqrt(p * (1 - p) / trials))


def test_empirical_bias_matches_reference_under_rejection():
    # at bounds near 2**62 Lemire's rejection redraws about a quarter of all
    # draws; small bounds never reach that branch
    counts = {(0,): 2**62 + 5, (1,): 2**61 + 3}
    n, trials, seed = sum(counts.values()), 3000, 17
    threshold = (2**64 - n) % n
    assert any((_mix64(split_seed(seed, t)) * n) & (2**64 - 1) < threshold
               for t in range(trials))
    for mode, first_key in (("process1", None), ("combine", None), ("combine", (0,)),
                            ("process1", (1,))):
        rep = empirical_bias(counts, mode, trials, seed, first_key=first_key)
        ones, nobit = reference_counts(counts, mode, trials, seed, first_key=first_key)
        assert (rep.prob_one, rep.no_bit) == (ones / trials, nobit / trials), mode
    # conditioned on (0,), a trial draws about 3,000 times before key (1,)
    # and a quarter of the draws are rejected; one of these 20 trials is
    # rejected 6,243 times, each time redrawing in place
    counts = {(0,): 3 * 2**62 - 2**52, (1,): 2**52}
    rep = empirical_bias(counts, "process1", 20, 5, first_key=(0,))
    ones, nobit = reference_counts(counts, "process1", 20, 5, first_key=(0,))
    assert (rep.prob_one, rep.no_bit) == (ones / 20, nobit / 20)


@pytest.mark.parametrize("mode, counts", [
    ("process1", {(0,): 3, (1,): 1, (2,): 5}),
    ("combine", {(0,): 3, (1,): 1, (2,): 5}),
    ("distinct_unbiased", {(i,): 1 for i in range(5)}),
    ("process1", {(0,): 2**62 + 5, (1,): 2**61 + 3}),
    ("combine", {(0,): 2**62 + 5, (1,): 2**61 + 3}),
    ("combine", {(5,): 1}),
], ids=["process1", "combine", "distinct_unbiased", "process1-rejection", "combine-rejection",
        "combine-one-item"])
def test_empirical_bias_matches_reference_across_chunks(mode, counts):
    # two full chunks and 17 lanes of a third; at bounds near 2**62 the
    # first draw is rejected in every chunk, so each chunk redraws some
    # lanes in place while the others keep their draws
    n, trials, seed = sum(counts.values()), 2 * _CHUNK + 17, 23
    if n > 2**62:
        threshold = (2**64 - n) % n
        assert {t // _CHUNK for t in range(trials)
                if (_mix64(split_seed(seed, t)) * n) & (2**64 - 1) < threshold} == {0, 1, 2}
    for first_key in (None, *counts):
        rep = empirical_bias(counts, mode, trials, seed, first_key=first_key)
        ones, nobit = reference_counts(counts, mode, trials, seed, first_key=first_key)
        assert (rep.prob_one, rep.no_bit) == (ones / trials, nobit / trials), first_key


_KERNEL_CASES = [
    ("process1", Fraction(1, 2), ("process1", "combine")),
    ("combine", Fraction(4142, 10000), ("process1", "combine")),
    ("distinct_unbiased", None, MODES),
    ("process1", Fraction(1, 5), ("process1", "combine")),
    (None, (3, 1, 5, 2, 2, 7), ("process1", "combine")),
]


@pytest.mark.parametrize("family, param, mode", [
    (family, param, mode) for family, param, modes in _KERNEL_CASES for mode in modes],
    ids=lambda v: str(v).replace("/", "_") if not isinstance(v, tuple) else "groups")
def test_lanes_match_reference_on_stream_profiles(family, param, mode):
    # the bias command families at n = 1e5 (one count group, or a conditioned
    # first class: no lane offsets), process1 at alpha 1/5 (two count
    # groups) and five unconditioned count groups, in every mode each
    # accepts; 600 trials leave fewer than half the lanes live, so the
    # kernel repacks
    if family is None:
        counts, first_key = {(k,): c for k, c in enumerate(param)}, None
        profile = run_lengths(counts)
        assert len(profile.groups) >= 3
    else:
        _, profile = bias_family(family, param, 10**5)
        counts, first_key = family_counts(family, param, 10**5)
    trials, seed = 600, 29
    rep = empirical_bias(profile, mode, trials, seed)
    ones, nobit = reference_counts(counts, mode, trials, seed, first_key=first_key)
    assert (rep.prob_one, rep.no_bit) == (ones / trials, nobit / trials)


def test_monte_carlo_work_is_bounded_per_trial():
    # E[J | K] = (c - 1)/(n - c + 1) over the first classes a trial can
    # draw: past DRAW_GUARD the call raises before the first draw; a class
    # holding every item never draws, and a trial conditioned on the rare
    # key stops at its second arrival
    c = 2 * DRAW_GUARD + 2  # E[J] = (2 * DRAW_GUARD + 1) / 2
    skewed = {(0,): c, (1,): 1}
    for first_key in (None, (0,)):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"exceeds Monte Carlo guard {DRAW_GUARD}$"):
            empirical_bias(skewed, "process1", 10**6, 1, first_key=first_key)
        assert time.perf_counter() - start < 0.1
    rep = empirical_bias(skewed, "process1", 50, 1, first_key=(1,))
    assert (rep.prob_one, rep.no_bit) == (1, 0)  # the second arrival differs
    assert empirical_bias({(0,): 10**12}, "combine", 50, 1).no_bit == 1


def test_split_lanes_match_split_seed_across_chunks():
    for seed in (-1, 0, 2**70 + 3):
        for t0, k in ((0, _CHUNK), (_CHUNK, 17)):
            assert list(_unpack(_split_lanes(seed, t0, k, _lane_consts(k)), k)) == \
                [split_seed(seed, t) for t in range(t0, t0 + k)], (seed, t0)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-3, 3)), st.integers(1, 6), min_size=1, max_size=5),
       st.sampled_from(MODES), st.integers(-2**70, 2**70), st.integers(-1, 4))
@example({(0,): 2, (1,): 2, (2,): 2}, "combine", 5, 1)  # the first key inside a run
@example({(0,): 3, (1,): 1, (2,): 3, (3,): 3}, "combine", 6, -1)
def test_profile_matches_counts_dict(counts, mode, seed, first):
    # a Profile and the counts dict it encodes give equal reports, with and
    # without a first key (none when ``first`` is -1), across two chunks and
    # 17 lanes of a third; the first 200 trials read the reference draws
    if mode == "distinct_unbiased":
        counts = dict.fromkeys(counts, 1)
        if len(counts) < 2:
            counts[(9,)] = 1
    first_key = None if first < 0 else sorted(counts)[first % len(counts)]
    profile = run_lengths(counts, first_key)
    trials = 2 * _CHUNK + 17
    assert empirical_bias(profile, mode, trials, seed) == empirical_bias(
        counts, mode, trials, seed, first_key=first_key)
    rep = empirical_bias(profile, mode, 200, seed)
    ones, nobit = reference_counts(counts, mode, 200, seed, first_key=first_key)
    assert (rep.prob_one, rep.no_bit) == (ones / 200, nobit / 200)
    if sum(counts.values()) <= 10:
        assert exact_bias(profile, mode) == exact_bias(counts, mode, first_key=first_key)


def test_family_profiles_encode_their_counts_dicts():
    # each family's profile is its dict's run-length encoding, and the two
    # give equal Monte Carlo reports, and equal exact ones at n <= 8
    grid = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(4142, 10000),
            Fraction(9, 10)]
    checked = 0
    for n in (2, 3, 4, 7, 8, 101, 1000):
        for mode in MODES:
            for param in grid if mode != "distinct_unbiased" else grid[:1]:
                try:
                    _, profile = bias_family(mode, param, n)
                except InputError:
                    continue
                counts, first_key = family_counts(mode, param, n)
                assert profile == run_lengths(counts, first_key), (mode, param, n)
                assert empirical_bias(profile, mode, 300, n) == empirical_bias(
                    counts, mode, 300, n, first_key=first_key), (mode, param, n)
                if n <= 8:
                    assert exact_bias(profile, mode) == exact_bias(
                        counts, mode, first_key=first_key), (mode, param, n)
                checked += 1
    assert checked > 60
    # a profile names its first class itself, and only one of its classes
    with pytest.raises(InputError):
        empirical_bias(profile, "combine", 10, 1, first_key=(0,))
    for bad in (-1, 3):
        for route in (lambda p: exact_bias(p, "combine"),
                      lambda p: empirical_bias(p, "combine", 10, 1)):
            with pytest.raises(InputError, match="one of its classes"):
                route(Profile(((1, 3),), bad))


def test_integer_key_families_keep_exact_results():
    # the families' int keys order, compare and hash as the Fraction keys do
    grid = [Fraction(k, 10) for k in range(1, 10)]
    checked = 0
    for n in range(2, 9):
        for mode in MODES:
            for param in grid if mode != "distinct_unbiased" else grid[:1]:
                try:
                    bias_family(mode, param, n)
                except InputError:
                    continue
                counts, first_key = family_counts(mode, param, n)
                as_fractions = {tuple(map(Fraction, k)): c for k, c in counts.items()}
                fraction_first = None if first_key is None else tuple(map(Fraction, first_key))
                assert exact_bias(counts, mode, first_key=first_key) == exact_bias(
                    as_fractions, mode, first_key=fraction_first), (mode, param, n)
                checked += 1
    assert checked > 100
    counts = family_counts("combine", Fraction(4142, 10000), 1000)[0]
    assert empirical_bias(counts, "combine", 2000, 3, first_key=(Fraction(0),)) == \
        empirical_bias(counts, "combine", 2000, 3, first_key=(0,))


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
        return int((keys[1] < keys[0]) == (mode == "combine")), i
    return int(i % 2 == 0), i


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 2).flatmap(
        lambda dim: st.lists(st.tuples(*[st.integers(0, 2)] * dim), max_size=9)
    ),
    st.sampled_from(MODES),
)
def test_harvest_matches_readme_rule(keys, mode):
    if mode == "distinct_unbiased" and len(keys) > 1 and keys[0] == keys[1]:
        with pytest.raises(InputError):  # the first two keys must differ
            harvest(keys, mode)
        return
    assert harvest(keys, mode) == _readme_rule(keys, mode)


def test_harvest_no_emission_and_laziness():
    assert harvest([], "combine") == (None, None)
    assert harvest([A, A, A], "process1") == (None, None)
    stream = iter([A, A, A, B, A])
    assert harvest(stream, "combine") == (0, 3)
    assert list(stream) == [A]  # nothing read past the emission


def test_harvest_rejects_bad_input():
    mixed = [A, (Fraction(0), Fraction(1))]
    with pytest.raises(InputError):  # dimension mismatch, checked where keys enter
        exact_bias(mixed, "combine")
    with pytest.raises(InputError):
        empirical_bias(mixed, "combine", 10, 1)
    with pytest.raises(InputError):
        empirical_bias(dict.fromkeys(mixed, 1), "combine", 10, 1)
    with pytest.raises(InputError, match="^key counts must be positive ints$"):
        exact_bias({A: 1, B: 0}, "combine")
    with pytest.raises(InputError, match="^key counts must be positive ints$"):
        empirical_bias({A: 0}, "process1", 10, 1)
    for route in (lambda mode: exact_bias([A, B], mode),
                  lambda mode: exact_distinct_conditional([A, B], mode),
                  lambda mode: empirical_bias([A, B], mode, 10, 1),
                  lambda mode: bias_family(mode, Fraction(1, 2), 10)):
        with pytest.raises(InputError, match="^unknown mode 'bogus'$"):
            route("bogus")
    with pytest.raises(InputError):  # the streaming rule needs two distinct keys
        harvest([A, A, B], "distinct_unbiased")
    assert harvest([A, B], "distinct_unbiased") == (1, 1)
    with pytest.raises(InputError):
        harvest([A, B], "process2")
