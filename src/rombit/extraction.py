"""One-bit extraction processes, the pairwise extractor, and bias oracles.

Three processes read the arrival stream of item keys:

* ``process1``  -- watch for the first key different from the first arrival's
  key; if it arrives at index i, emit ``1 - (i % 2)`` (1 at even i).
* ``distinct_unbiased`` -- compare the first two (distinct) keys; emit 1 when
  the first is lexicographically smaller.
* ``combine`` -- if the first two keys differ, emit 1 when the second is
  smaller than the first; if they are identical, keep scanning and emit 1
  when the first different key arrives at an odd index (>= 3).

The parity inside ``combine`` is deliberately the opposite of standalone
``process1``: with it, Pr(b=1) stays in (1/2, 2 - sqrt(2)] for every input
mix, so downstream algorithms can rely on min(Pr(b=1), Pr(b=0)) >= sqrt(2)-1.

``harvest`` runs an incremental extractor over an arrival stream and is the
one place where applications take their bit.

Bias oracles come in two routes that never share code paths: exact
enumeration over all labeled arrival orders (small n), and Monte Carlo
sampling without replacement from a key multiset (large n).  Monte Carlo
trial t draws from the splitmix64 counter stream ``CounterStream(seed, t)``;
all other randomness in the package uses ``rng_for``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CapacityError,
    CounterStream,
    ENUMERATION_GUARD,
    InputError,
    Instance,
    StateError,
    distinct_orderings,
    lex_compare,
    split_seed,
)

MODES = ("process1", "distinct_unbiased", "combine")


class Process1Extractor:
    """Biased bit extraction: parity of the first type change (Algorithm-1 rule)."""

    mode = "process1"

    def __init__(self):
        self.first_type = None
        self.counter = 0
        self.emitted = None

    def feed(self, key):
        if self.emitted is not None:
            raise StateError("bit already emitted")
        self.counter += 1
        if self.counter == 1:
            self.first_type = tuple(key)
            return None
        if lex_compare(tuple(key), self.first_type) != 0:
            self.emitted = 1 - (self.counter % 2)
            return self.emitted
        return None


class CombineExtractor:
    """Order comparison when the first two items differ, else type-change parity.

    When the first two keys are identical the bit is 1 iff the first distinct
    key arrives at an odd index.
    """

    mode = "combine"

    def __init__(self):
        self.first_type = None
        self.counter = 0
        self.emitted = None

    def feed(self, key):
        if self.emitted is not None:
            raise StateError("bit already emitted")
        key = tuple(key)
        self.counter += 1
        if self.counter == 1:
            self.first_type = key
            return None
        cmp = lex_compare(key, self.first_type)
        if cmp == 0:
            return None
        if self.counter == 2:
            self.emitted = 1 if cmp < 0 else 0
        else:
            self.emitted = self.counter % 2
        return self.emitted


def extractor_for(mode):
    if mode == "process1":
        return Process1Extractor()
    if mode == "combine":
        return CombineExtractor()
    raise InputError(f"no incremental extractor for mode {mode!r}")


def distinct_unbiased(first, second):
    """Unbiased bit from the first two items of an all-distinct instance."""
    cmp = lex_compare(tuple(first), tuple(second))
    if cmp == 0:
        raise InputError("distinct_unbiased requires two distinct keys")
    return 1 if cmp < 0 else 0


def pairwise_bits(keys):
    """N unbiased bits from 2N items: bit k compares items 2k-1 and 2k."""
    keys = [tuple(k) for k in keys]
    if len(keys) % 2 != 0:
        raise InputError("pairwise extraction needs an even number of items")
    return [distinct_unbiased(keys[i], keys[i + 1]) for i in range(0, len(keys), 2)]


def harvest(keys, mode="combine"):
    """First emission of an incremental extractor on an arrival stream.

    Returns ``(bit, index)`` with the 0-based arrival index of the key that
    made the process emit, or ``(None, None)`` when it never emits.  Keys are
    consumed lazily and the stream is not read past the emission, so every
    application takes its bit here and commits at ``index``.
    """
    ext = extractor_for(mode)
    for i, k in enumerate(keys):
        b = ext.feed(k)
        if b is not None:
            return b, i
    return None, None


def bit_for_sequence(keys, mode):
    """Bit emitted by the chosen process on a full arrival order, or None."""
    if mode == "distinct_unbiased":
        keys = list(keys)
        if len(keys) < 2:
            return None
        return distinct_unbiased(keys[0], keys[1])
    return harvest(keys, mode)[0]


@dataclass
class BiasReport:
    """Pr(b=1) of one extraction process on one instance.

    Exact reports carry Fractions and no stderr; Monte Carlo reports carry
    floats plus stderr = sqrt(p(1-p)/trials).  ``no_bit`` is the probability
    mass of arrival orders where the process never emits.
    """

    mode: str
    prob_one: object
    no_bit: object
    n_items: int
    trials: int = None
    seed: int = None
    stderr: float = None


def _key_counts(source):
    """Unsorted key -> count dict from an Instance, key iterable, or counts dict."""
    if isinstance(source, dict):
        counts = {tuple(k): int(c) for k, c in source.items()}
        if any(c <= 0 for c in counts.values()):
            raise InputError("key counts must be positive")
        return counts
    if isinstance(source, Instance):
        source = (it.key for it in source.items)
    counts = {}
    for k in source:
        k = tuple(k)
        counts[k] = counts.get(k, 0) + 1
    return counts


def exact_bias(source, mode):
    """Exact Pr(b=1) over all labeled arrival orders (n <= 10).

    Orders where no bit is emitted are reported as ``no_bit`` mass, not an
    error: on an all-identical instance the arrival order carries no
    randomness at all.
    """
    counts = _key_counts(source)
    n = sum(counts.values())
    if n > ENUMERATION_GUARD:
        raise CapacityError(f"n={n} exceeds enumeration guard {ENUMERATION_GUARD}")
    multiset = [k for k, c in counts.items() for _ in range(c)]
    ones = zeros = nobit = 0
    total = 0
    for order in distinct_orderings(multiset):
        b = bit_for_sequence(order, mode)
        total += 1
        if b is None:
            nobit += 1
        elif b == 1:
            ones += 1
        else:
            zeros += 1
    return BiasReport(
        mode=mode,
        prob_one=Fraction(ones, total),
        no_bit=Fraction(nobit, total),
        n_items=n,
    )


def exact_distinct_conditional(source, mode="combine"):
    """Exact Pr(b=1 | first two arrivals distinct), or None if undefined."""
    counts = _key_counts(source)
    n = sum(counts.values())
    if n > ENUMERATION_GUARD:
        raise CapacityError(f"n={n} exceeds enumeration guard {ENUMERATION_GUARD}")
    multiset = [k for k, c in counts.items() for _ in range(c)]
    ones = total = 0
    for order in distinct_orderings(multiset):
        if len(order) < 2 or order[0] == order[1]:
            continue
        total += 1
        if bit_for_sequence(order, mode) == 1:
            ones += 1
    if total == 0:
        return None
    return Fraction(ones, total)


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


def empirical_bias(source, mode, trials, seed, first_key=None):
    """Monte Carlo Pr(b=1) over ROM arrivals sampled without replacement.

    ``first_key`` conditions every trial on the first arrival being an item
    with that key; this realizes the worst-case analyses that fix the
    frequency of the first-arriving type.  Trial t draws from
    ``CounterStream(seed, t)``, so its outcome depends only on (seed, t).
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    counts = _key_counts(source)
    n = sum(counts.values())
    if first_key is not None:
        first_key = tuple(first_key)
        if first_key not in counts:
            raise InputError(f"first_key {first_key!r} not present in the instance")

    ones = nobit = 0
    if mode == "distinct_unbiased":
        if n != len(counts):
            raise InputError("distinct_unbiased requires all-distinct items")
        if n < 2:
            raise InputError("need at least two items")
        for t in range(trials):
            below = CounterStream(seed, t).below
            # ranks of the first two arrivals among the n distinct keys
            a = below(n)
            b = below(n - 1)
            if b >= a:
                b += 1
            if a < b:
                ones += 1
    else:
        if first_key is not None:
            c_below = sum(c for k, c in counts.items() if k < first_key)
            c_eq = counts[first_key] - 1
        else:
            # the first arrival's rank selects the key whose count range holds it
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

    p = ones / trials
    return BiasReport(
        mode=mode,
        prob_one=p,
        no_bit=nobit / trials,
        n_items=n,
        trials=trials,
        seed=seed,
        stderr=math.sqrt(p * (1 - p) / trials),
    )


# ---------------------------------------------------------------------------
# closed forms and instance families for the bias curves
# ---------------------------------------------------------------------------


def process1_predicted(alpha):
    """Infinite-population Pr(b=1) for a two-type mix with first-type share alpha."""
    a = Fraction(alpha) if not isinstance(alpha, Fraction) else alpha
    if not 0 < a < 1:
        raise InputError("alpha must lie strictly between 0 and 1")
    return (2 * a * a - 2 * a - 1) / ((a + 1) * (a - 2))


def combine_predicted(r):
    """Infinite-population Pr(b=1) when the first arrival's type has share r."""
    r = Fraction(r) if not isinstance(r, Fraction) else r
    if not 0 < r < 1:
        raise InputError("r must lie strictly between 0 and 1")
    return (1 - r) / 2 + r / (1 + r)


def two_type_counts(alpha, n):
    """Two keys 0 < 1 with floor(alpha*n) copies of the first."""
    a = Fraction(alpha)
    if not 0 < a < 1:
        raise InputError("alpha must lie strictly between 0 and 1")
    c0 = int(a * n)
    if c0 < 1 or c0 >= n:
        raise InputError("alpha*n must leave at least one item of each type")
    return {(Fraction(0),): c0, (Fraction(1),): n - c0}


def first_frequency_counts(r, n):
    """Worst-case family for ``combine``: copies of a median key, rest distinct.

    floor(r*n) copies of key 0 plus n - floor(r*n) pairwise distinct keys
    split as evenly as possible below and above 0.  Conditioning the first
    arrival on key 0 reproduces the closed form (1-r)/2 + r/(1+r): distinct
    seconds fall below or above the median with near-equal probability, and
    the identical branch sees the remaining copies with share ~r.
    """
    rr = Fraction(r)
    if not 0 < rr < 1:
        raise InputError("r must lie strictly between 0 and 1")
    copies = int(rr * n)
    if copies < 1 or copies >= n:
        raise InputError("r*n must leave at least one distinct item")
    rest = n - copies
    below = rest // 2
    above = rest - below
    counts = {(Fraction(0),): copies}
    for i in range(below):
        counts[(Fraction(-(i + 1)),)] = 1
    for i in range(above):
        counts[(Fraction(i + 1),)] = 1
    return counts


def all_distinct_counts(n):
    return {(Fraction(i),): 1 for i in range(n)}


def bias_curve(mode, params, n_items, trials, seed):
    """(parameter, predicted, empirical, stderr) rows for a parameter grid.

    process1 uses the two-type family; combine uses the first-frequency
    worst-case family with the first arrival conditioned on the copied key.
    """
    rows = []
    for ix, param in enumerate(params):
        child = split_seed(seed, 1000 + ix)
        if mode == "process1":
            predicted = process1_predicted(param)
            counts = two_type_counts(param, n_items)
            rep = empirical_bias(counts, mode, trials, child)
        elif mode == "combine":
            predicted = combine_predicted(param)
            counts = first_frequency_counts(param, n_items)
            rep = empirical_bias(counts, mode, trials, child, first_key=(Fraction(0),))
        elif mode == "distinct_unbiased":
            predicted = Fraction(1, 2)
            rep = empirical_bias(all_distinct_counts(n_items), mode, trials, child)
        else:
            raise InputError(f"unknown mode {mode!r}")
        rows.append(
            {
                "parameter": param,
                "predicted": predicted,
                "empirical": rep.prob_one,
                "stderr": rep.stderr,
            }
        )
    return rows
