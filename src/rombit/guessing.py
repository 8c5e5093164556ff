"""De-randomized binary string guessing under random-order arrivals.

Guess 0 for the first bit, then persist with the first bit's true value
until the first miss.  The miss happens exactly when the first bit value
different from the leading one arrives, which is also the moment COMBINE
emits its bit r; guess r from then on.  On a constant string there is never
a switch and at most the very first guess is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import InputError, distinct_orderings, rng_for
from .extraction import harvest


@dataclass
class GuessTrace:
    guesses: tuple
    truth: tuple
    correct: int
    switch_index: int  # position of the first miss / bit emission, or None


def guess_run(bits):
    """Play one arrival order of the truth string; returns the full trace."""
    bits = tuple(bits)
    if not set(bits) <= {0, 1}:
        raise InputError("string guessing items must be bits")
    bits = tuple(map(int, bits))
    r, switch = harvest((b,) for b in bits)
    if not bits:
        guesses = ()
        correct = 0
    else:
        # guess 0 first, persist with the first bit up to the switch, then r
        head = len(bits) - 1 if switch is None else switch
        guesses = (0,) + (bits[0],) * head + (r,) * (len(bits) - 1 - head)
        correct = (
            (bits[0] == 0) + bits[1 : head + 1].count(bits[0]) + bits[head + 1 :].count(r)
        )
    return GuessTrace(guesses=guesses, truth=bits, correct=correct, switch_index=switch)


def exact_expected_correct(bits):
    """Exact E[correct] over all arrival orders of the bit multiset."""
    total = Fraction(0)
    count = 0
    for order in distinct_orderings(bits):
        total += guess_run(order).correct
        count += 1
    return total / count


def exact_ratio(bits):
    """n / E[correct]; the offline optimum always guesses every bit."""
    e = exact_expected_correct(bits)
    if e == 0:
        raise InputError("expected correct count is zero")
    return Fraction(len(tuple(bits))) / e


def empirical_ratio(n, p_one, trials, seed):
    """Monte Carlo n / E[correct] over random truth strings and arrivals.

    Each trial draws a Bernoulli(p_one) string and one arrival order; the
    arrival order of an exchangeable random string is itself the string, so
    a single shuffle-free draw suffices.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    p = float(p_one)
    if not 0 <= p <= 1:
        raise InputError(f"p_one must lie in [0, 1], got {p_one}")
    total_correct = 0
    for t in range(trials):
        rng = rng_for(seed, t)
        bits = [1 if rng.random() < p else 0 for _ in range(n)]
        total_correct += guess_run(bits).correct
    mean = total_correct / trials
    return {
        "n": n,
        "mean_correct": mean,
        "ratio": n / mean if mean else float("inf"),
        "trials": trials,
        "seed": seed,
    }
