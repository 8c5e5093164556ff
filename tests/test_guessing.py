"""Binary string guessing under random-order arrivals."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rombit.core import InputError
from rombit.guessing import (
    empirical_ratio,
    exact_expected_correct,
    exact_ratio,
    guess_run,
)


def test_hand_trace():
    tr = guess_run([0, 0, 0, 0, 1, 1])
    assert tr.guesses == (0, 0, 0, 0, 0, 1)
    assert tr.correct == 5
    assert tr.switch_index == 4  # first distinct at position 5, odd, so r = 1


def test_constant_strings():
    assert guess_run([0] * 6).correct == 6
    assert guess_run([1] * 6).correct == 5  # only the forced first guess misses


@given(st.lists(st.sampled_from([0, 1, False, True, Fraction(0), Fraction(1)]),
                max_size=30))
@example([])
@example([0] * 9)
@example([1] * 9)
@example([True, False, True])
def test_guess_run_correct_matches_zip_count(bits):
    tr = guess_run(bits)
    assert tr.truth == tuple(int(b) for b in bits)
    assert len(tr.guesses) == len(bits)
    assert tr.correct == sum(g == b for g, b in zip(tr.guesses, tr.truth))


@pytest.mark.parametrize("bits", [[0, 2], [1.5, 0], ["1", 0], [-1]])
def test_guess_run_rejects_non_bits(bits):
    with pytest.raises(InputError):
        guess_run(bits)


def test_majority_lower_bound_all_small_strings():
    # E[correct] >= (sqrt(2)-1) * majority - 1 over exact enumeration
    c = math.sqrt(2) - 1
    for n in range(1, 9):
        for k in range(n + 1):
            bits = [1] * k + [0] * (n - k)
            e = exact_expected_correct(bits)
            assert float(e) >= c * max(k, n - k) - 1 - 1e-12


def test_exact_ratio_values():
    # frozen enumeration values: {0,0,1,1} averages 5/3 correct
    assert exact_expected_correct([0, 0, 1, 1]) == Fraction(5, 3)
    assert exact_ratio([0, 0, 1, 1]) == Fraction(12, 5)
    assert exact_ratio([0, 0, 0, 0]) == 1


def test_empirical_ratio_long_strings():
    res = empirical_ratio(10000, 0.6, 300, 1)
    assert res["ratio"] <= 2.42
    again = empirical_ratio(10000, 0.6, 300, 1)
    assert res["mean_correct"] == again["mean_correct"]
