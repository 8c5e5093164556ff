"""Reference Monte Carlo trial: one splitmix64 stream object per trial.

``extraction.empirical_bias`` runs its trials as the 128-bit lanes of one
Python int, a chunk at a time.  This module keeps the object form, a
``CounterStream`` per trial and ``_sample_bit`` after the first arrival, so
tests can check that every lane reads the same draws and returns the same
bits.
"""

import bisect
import itertools

from rombit.core import _GAMMA, _MASK64, InputError, _mix64, split_seed


class CounterStream:
    """splitmix64 counter stream keyed by ``split_seed(seed, *indices)``.

    Draw k = 1, 2, ... is the splitmix64 finalizer of key + k*gamma, i.e.
    ``_mix64`` of the state, which then advances by gamma (Steele, Lea and
    Flood, OOPSLA 2014).
    """

    __slots__ = ("state",)

    def __init__(self, seed, *indices):
        self.state = split_seed(seed, *indices)

    def below(self, bound):
        """Uniform int on [0, bound) for 1 <= bound <= 2**64.

        Lemire's multiply-shift (ACM TOMACS 2019): the high word of x*bound,
        with draws whose low word falls under 2**64 mod bound rejected, so
        every value has exactly the same number of preimages.
        """
        if not 0 < bound <= _MASK64 + 1:
            raise InputError(f"bound must lie in [1, 2**64], got {bound}")
        m = _mix64(self.state) * bound
        self.state = (self.state + _GAMMA) & _MASK64
        if m & _MASK64 < bound:
            threshold = (_MASK64 + 1 - bound) % bound
            while m & _MASK64 < threshold:
                m = _mix64(self.state) * bound
                self.state = (self.state + _GAMMA) & _MASK64
        return m >> 64


def _sample_bit(below, c_below, c_eq, remaining, mode):
    """One trial after the first arrival: draw without replacement until decided.

    ``c_below`` and ``c_eq`` count the remaining items below and equal to the
    first key, out of ``remaining``; ``below(m)`` is a uniform draw on
    [0, m).  Only the category of each draw relative to the first key
    (below / equal / above) matters, so a trial is O(#draws).
    """
    if c_eq == remaining:
        return None
    r = below(remaining)
    if mode == "combine" and r >= c_eq:
        return 1 if r - c_eq < c_below else 0
    i = 2
    while r < c_eq:
        c_eq -= 1
        remaining -= 1
        i += 1
        r = below(remaining)
    return 1 - (i % 2) if mode == "process1" else i % 2


def reference_counts(counts, mode, trials, seed, first_key=None):
    """(ones, no_bit) of ``trials`` trials on a key -> count dict, trial t
    drawing from ``CounterStream(seed, t)``; ``first_key`` must be a key of
    ``counts`` or None."""
    n = sum(counts.values())
    ones = nobit = 0
    if mode == "distinct_unbiased":
        first_rank = None if first_key is None else sum(k < first_key for k in counts)
        for t in range(trials):
            below = CounterStream(seed, t).below
            a = below(n) if first_rank is None else first_rank
            b = below(n - 1)
            if b >= a:
                b += 1
            if a < b:
                ones += 1
        return ones, nobit
    if first_key is not None:
        c_below = sum(c for k, c in counts.items() if k < first_key)
        c_eq = counts[first_key] - 1
    else:
        pairs = sorted(counts.items())
        prefix = list(itertools.accumulate((c for _, c in pairs), initial=0))[:-1]
    for t in range(trials):
        below = CounterStream(seed, t).below
        if first_key is None:
            ix = bisect.bisect_right(prefix, below(n)) - 1
            c_below, c_eq = prefix[ix], pairs[ix][1] - 1
        b = _sample_bit(below, c_below, c_eq, n - 1, mode)
        if b is None:
            nobit += 1
        elif b == 1:
            ones += 1
    return ones, nobit
