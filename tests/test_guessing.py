"""Binary string guessing under random-order arrivals."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rombit.core import CapacityError, InputError, make_instance, rng_for
from rombit.extraction import harvest
from rombit.guessing import _BLOCK, _correct, _draw_bits, empirical_ratio, guess_run
from rombit.harness import ExperimentConfig, run_experiment


def exact_rows(strings):
    """The exact ``string_guess`` row of each bit string, by string: its
    ``mean_alg`` is E[correct] and its ``empirical_ratio`` n / E[correct]."""
    instances = [make_instance("string_guess", [{"bit": b} for b in bits], {"id": str(i)})
                 for i, bits in enumerate(strings)]
    report = run_experiment(ExperimentConfig("string_guess", instances, exact=True))
    return {strings[int(row["instance_id"])]: row for row in report.rows}


def test_hand_trace():
    tr = guess_run([0, 0, 0, 0, 1, 1])
    assert tr.guesses == (0, 0, 0, 0, 0, 1)
    assert tr.value == 5
    assert tr.switch_index == 4  # first distinct at position 5, odd, so r = 1


def test_constant_strings():
    assert guess_run([0] * 6).value == 6
    assert guess_run([1] * 6).value == 5  # only the forced first guess misses


@given(st.lists(st.sampled_from([0, 1, False, True, Fraction(0), Fraction(1)]),
                max_size=30))
@example([])
@example([0] * 9)
@example([1] * 9)
@example([True, False, True])
def test_guess_run_correct_matches_zip_count(bits):
    tr = guess_run(bits)
    truth = tuple(int(b) for b in bits)
    assert len(tr.guesses) == len(bits)
    assert tr.value == sum(g == b for g, b in zip(tr.guesses, truth))
    assert _correct(bytes(truth), *harvest(bytes(truth))) == tr.value


@pytest.mark.parametrize("bits", [[0, 2], [1.5, 0], ["1", 0], [-1]])
def test_guess_run_rejects_non_bits(bits):
    with pytest.raises(InputError):
        guess_run(bits)


def test_majority_lower_bound_all_small_strings():
    # E[correct] >= (sqrt(2)-1) * majority - 1 over exact enumeration; the
    # string (1,) has no row (E[correct] = 0, see below), so its one order
    # is checked on its own
    c = math.sqrt(2) - 1
    strings = [(1,) * k + (0,) * (n - k) for n in range(1, 9) for k in range(n + 1)]
    strings.remove((1,))
    rows = exact_rows(strings)
    assert len(rows) == len(strings) == 43
    for bits, row in rows.items():
        k = sum(bits)
        assert float(row["mean_alg"]) >= c * max(k, len(bits) - k) - 1 - 1e-12
    assert guess_run((1,)).value == 0 >= c - 1


def test_zero_expected_correct_is_unbounded():
    # the string [1] is guessed wrong in its only order, so OPT/E[ALG] = 1/0;
    # a ratio of 0 there would let worst_ratio read 4, from [0, 1]
    instances = [make_instance("string_guess", [{"bit": b} for b in bits], {"id": name})
                 for name, bits in (("one", [1]), ("pair", [0, 1]))]
    with pytest.raises(InputError) as ei:
        run_experiment(ExperimentConfig("string_guess", instances, exact=True))
    assert str(ei.value) == "one: E[ALG] is 0, so OPT/E[ALG] is unbounded"


@pytest.mark.parametrize("bits", [
    [Fraction(1, 2), 1, 0], [Fraction(-1, 2), 1], [3, 0], [-1, 1], [[2, 4], 1]],
    ids=["half", "minus-half", "three", "minus-one", "half-pair"])
def test_non_bits_are_rejected(bits):
    # [1/2, 1, 0] once ran as [0, 1, 0]: mean_alg 4/3, opt 3, ratio 9/4
    instances = [make_instance("string_guess", [{"bit": b} for b in bits], {"id": "s"})]
    with pytest.raises(InputError) as ei:
        run_experiment(ExperimentConfig("string_guess", instances, exact=True))
    assert str(ei.value) == "string guessing items must be bits"


def test_exact_ratio_values():
    # frozen enumeration values: {0,0,1,1} averages 5/3 correct; the
    # README's 2-bit string with one bit of each value has ratio 4
    rows = exact_rows([(0, 0, 1, 1), (0, 0, 0, 0), (0, 1)])
    assert rows[0, 0, 1, 1]["mean_alg"] == Fraction(5, 3)
    assert rows[0, 0, 1, 1]["empirical_ratio"] == Fraction(12, 5)
    assert rows[0, 0, 0, 0]["empirical_ratio"] == 1
    assert rows[0, 1]["empirical_ratio"] == 4


def test_exact_ratio_enumeration_guard():
    # above the guard nothing is enumerated: n = 30 would be C(30, 15) orders
    assert exact_rows([(0, 1) * 5])[(0, 1) * 5]["empirical_ratio"] > 1
    for n in (11, 30):
        with pytest.raises(CapacityError):
            exact_rows([(0, 1) * (n // 2) + (1,) * (n % 2)])


def test_empirical_ratio_long_strings():
    res = empirical_ratio(10000, 0.6, 300, 1)
    assert res["ratio"] <= 2.42
    again = empirical_ratio(10000, 0.6, 300, 1)
    assert res["mean_correct"] == again["mean_correct"]


def reference_mean_correct(n, p, trials, seed):
    """Mean correct guesses as a list of bits per trial, each scored by
    ``guess_run``: the form the byte-counting loop replaced."""
    total = 0
    for t in range(trials):
        rng = rng_for(seed, t)
        total += guess_run([1 if rng.random() < p else 0 for _ in range(n)]).value
    return total / trials


@st.composite
def guess_inputs(draw):
    """(n, p_one, trials, seed), with p_one 0, 1, any float in [0, 1], or the
    first draw of one of the trials, where ``x < p`` and ``x <= p`` part."""
    seed, trials = draw(st.integers(-2**70, 2**70)), draw(st.integers(1, 4))
    ties = [rng_for(seed, t).random() for t in range(trials)]
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1), st.sampled_from(ties)))
    return draw(st.integers(1, 64)), p, trials, seed


@settings(max_examples=200, deadline=None)
@given(guess_inputs())
@example((1, 1.0, 3, 0))
@example((2, 0.5, 1, 0))
def test_empirical_ratio_matches_guess_run_reference(args):
    want = reference_mean_correct(*args)
    if want == 0:
        with pytest.raises(InputError, match="unbounded"):
            empirical_ratio(*args)
    else:
        res = empirical_ratio(*args)
        assert (res["mean_correct"], res["ratio"]) == (want, args[0] / want)


@st.composite
def draw_inputs(draw):
    """(seed, n, p) for ``_draw_bits``: n about the block boundaries, and p 0,
    1, the least float, the greatest below 1, any float, the value of one of
    the n draws, or a float sharing that draw's top byte but not its rest."""
    seed = draw(st.integers(-2**70, 2**70))
    n = draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]))
    rng = rng_for(seed, 0)
    for _ in range(draw(st.integers(0, n - 1))):
        rng.random()
    x = int(rng.random() * 2**53)
    low = draw(st.integers(0, 2**45 - 1).filter(lambda v: v != x % 2**45))
    return seed, n, draw(st.one_of(
        st.sampled_from([0.0, 1.0, 5e-324, 1 - 2**-53, x / 2**53,
                         (x >> 45 << 45 | low) / 2**53]),
        st.floats(0, 1)))


@settings(max_examples=150, deadline=None)
@given(draw_inputs())
def test_draw_bits_match_per_call_random(args):
    # the bytes are the per-call ``random() < p`` bits, and the generator
    # goes on from where those n calls leave it
    seed, n, p = args
    want, got = rng_for(seed, 0), rng_for(seed, 0)
    assert _draw_bits(got, n, p) == bytes(want.random() < p for _ in range(n))
    assert got.random() == want.random()


def reference_correct(bits, r):
    """Correct guesses when the player guesses 0, then the first bit, and r
    from the first miss after the first guess on."""
    correct, guess, switched = 0, 0, False
    for k, b in enumerate(bits):
        correct += guess == b
        if k == 0:
            guess = b
        elif guess != b and not switched:
            guess, switched = r, True
    return correct


def test_branch_values_are_forced_r_counts():
    # every 0/1 string up to length 8: ``one`` and ``zero`` are the correct
    # guesses with r forced to 1 and to 0, and the value is the run's own r's
    for n in range(9):
        for bits in itertools.product((0, 1), repeat=n):
            run = guess_run(bits)
            assert (run.one, run.zero) == (reference_correct(bits, 1),
                                           reference_correct(bits, 0))
            r = harvest(bits)[0]
            assert run.bit == r
            assert run.value == reference_correct(bits, 1 if r is None else r)
