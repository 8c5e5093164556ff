"""One-bit extraction processes, the pairwise extractor, and bias oracles.

Three processes read the arrival stream of item keys, compared as plain
Python values (tuples lexicographically).  Let i be the first 0-based index
whose key differs from the first arrival's key:

* ``process1`` -- emit ``i % 2`` (1 when the change is at an even 1-based
  position).
* ``distinct_unbiased`` -- compare the first two (distinct) keys; emit 1 when
  the first is smaller.
* ``combine`` -- at i = 1 the first two keys differ: emit 1 when the second
  is smaller than the first.  Otherwise emit ``(i + 1) % 2`` (1 when the
  change is at an odd 1-based position >= 3).

The parity inside ``combine`` is deliberately the opposite of standalone
``process1``.  On the first-frequency family (``first_frequency_counts``:
a share r of copies of a median key, which arrives first, the rest
distinct) combine's Pr(b=1) tends to (1-r)/2 + r/(1+r) as n grows, at most
2 - sqrt(2), reached at r = sqrt(2) - 1.  That limit bounds no finite input:
enumeration gives exactly 1/2 on three distinct keys and 2/3 on key counts
{A: 1, B: 2}.  ``process1`` tends to 2/3 on two equal halves
(``two_type_counts`` at alpha 1/2), and gives exactly 1 on distinct keys.

``harvest`` holds all three rules, and is the one place where applications,
the pairwise extractor and the exact oracles take their bit.  Caller keys
are checked once, where they enter: one key length per instance.  Every
application's run is a ``Run``, whose bit ``commit``s it to one branch.

Bias oracles come in two routes that never share code paths: exact
enumeration over all labeled arrival orders (small n), and Monte Carlo
sampling without replacement from a key multiset (large n).  Monte Carlo
trials run ``_CHUNK`` at a time as the 128-bit lanes of one Python int: the
lanes compute the key ``split_seed(seed, t)`` and draw from the splitmix64
counter stream it keys, so one big-int op advances every trial of a chunk.
Lanes whose draw Lemire's method rejects go back on a work list, packed as
lanes of their own, and redraw in the same kernel.  The tests keep the
object form, a ``CounterStream`` per trial, as the reference the lanes must
match draw for draw.  All other randomness in the package uses ``rng_for``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CapacityError,
    ENUMERATION_GUARD,
    InputError,
    Instance,
    _GAMMA,
    _MASK64,
    _mix64,
    distinct_orderings,
    split_seed,
)

MODES = ("process1", "distinct_unbiased", "combine")


def _one_length(keys):
    """``keys``, a collection of key tuples; InputError unless they all have
    one length."""
    if len(lengths := set(map(len, keys))) > 1:
        raise InputError(f"key dimension mismatch: lengths {sorted(lengths)}")
    return keys


def distinct_unbiased(first, second):
    """Unbiased bit from the first two items of an all-distinct instance."""
    return harvest(_one_length((tuple(first), tuple(second))), "distinct_unbiased")[0]


def pairwise_bits(keys):
    """N unbiased bits from 2N items: bit k compares items 2k-1 and 2k."""
    keys = _one_length([tuple(k) for k in keys])
    if len(keys) % 2 != 0:
        raise InputError("pairwise extraction needs an even number of items")
    return [harvest(keys[i:i + 2], "distinct_unbiased")[0] for i in range(0, len(keys), 2)]


def harvest(keys, mode="combine"):
    """The bit of ``mode`` on an arrival stream of keys.

    Keys are compared as plain Python values (tuples lexicographically).
    Let i be the first 0-based index whose key differs from the first
    arrival's.  ``process1`` emits ``i % 2``; ``combine`` emits
    ``[second < first]`` at i = 1 and ``(i + 1) % 2`` after that;
    ``distinct_unbiased`` emits ``[first < second]`` and raises InputError
    when the first two keys are equal.  Returns ``(bit, i)``, or ``(None,
    None)`` when every key is identical.  Keys are consumed lazily and the
    stream is not read past index i, so every application takes its bit
    here and commits at ``i``.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    stream = iter(keys)
    first = next(stream, None)
    for i, key in enumerate(stream, start=1):
        if key != first:
            if i > 1 or mode == "process1":
                return (i + (mode == "combine")) % 2, i
            return int((key < first) != (mode == "distinct_unbiased")), 1
        if mode == "distinct_unbiased":
            raise InputError("distinct_unbiased requires two distinct keys")
    return None, None


def commit(bit, one, zero):
    """The commit rule: bit 0 takes ``zero``; bit 1, or no bit, takes ``one``."""
    return zero if bit == 0 else one


@dataclass
class Run:
    """One order's run: the bit ``harvest`` took (None when every key is
    identical) and the branch values under bit 1 and under bit 0.  Records
    that subclass it add only the fields their audit reads."""

    bit: int
    one: int
    zero: int

    @property
    def value(self):
        return commit(self.bit, self.one, self.zero)


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
    """Unsorted key -> count dict from an Instance, key iterable, or counts
    dict; a counts dict is checked in place and returned as it is."""
    if isinstance(source, dict):
        if not all(type(c) is int and c > 0 for c in source.values()):
            raise InputError("key counts must be positive ints")
        return _one_length(source)
    if isinstance(source, Instance):
        source = (it.key for it in source.items)
    counts = {}
    for k in source:
        k = tuple(k)
        counts[k] = counts.get(k, 0) + 1
    return _one_length(counts)


def _first_key(counts, first_key):
    """``first_key`` as a key tuple of ``counts``, or None when not given."""
    if first_key is None:
        return None
    first_key = tuple(first_key)
    if first_key not in counts:
        raise InputError(f"first_key {first_key!r} not present in the instance")
    return first_key


def exact_bias(source, mode, first_key=None):
    """Exact Pr(b=1) over all labeled arrival orders (n <= 10).

    ``first_key`` conditions on the first arrival being an item with that
    key, as in ``empirical_bias``: only the distinct orders that start with
    it are enumerated, and each stands for the same number of labeled
    orders.  Orders where no bit is emitted are reported as ``no_bit`` mass,
    not an error: on an all-identical instance the arrival order carries no
    randomness at all.
    """
    counts = _key_counts(source)
    n = sum(counts.values())
    if n > ENUMERATION_GUARD:
        raise CapacityError(f"n={n} exceeds enumeration guard {ENUMERATION_GUARD}")
    first_key = _first_key(counts, first_key)
    head = () if first_key is None else (first_key,)
    multiset = [k for k, c in counts.items() for _ in range(c - (k == first_key))]
    ones = nobit = total = 0
    for rest in distinct_orderings(multiset):
        b = harvest(head + rest, mode)[0]
        total += 1
        if b is None:
            nobit += 1
        elif b == 1:
            ones += 1
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
        if harvest(order, mode)[0] == 1:
            ones += 1
    if total == 0:
        return None
    return Fraction(ones, total)


def empirical_bias(source, mode, trials, seed, first_key=None):
    """Monte Carlo Pr(b=1) over ROM arrivals sampled without replacement.

    ``first_key`` conditions every trial on the first arrival being an item
    with that key; this realizes the worst-case analyses that fix the
    frequency of the first-arriving type.

    Trial t reads the splitmix64 counter stream keyed by ``split_seed(seed,
    t)``, so its outcome depends only on (seed, t).  Draw k is the splitmix64
    finalizer of key + k*gamma (Steele, Lea and Flood, OOPSLA 2014), taken to
    [0, bound) by Lemire's multiply-shift (ACM TOMACS 2019): the high word of
    x*bound, redrawn while the low word falls under 2**64 mod bound.  Only
    the category of each arrival relative to the first (below / equal /
    above) matters, so a trial reads the counts of the first arrival's key
    and costs O(#draws), whatever the keys.  Trials run in chunks of
    ``_CHUNK``, each chunk as the lanes of ``_chunk_counts``, which takes a
    rejected draw's lanes back as a work item of their own; every trial
    takes the draws it would take alone, so the result does not depend on
    the chunk size.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    counts = _key_counts(source)
    n = sum(counts.values())
    first_key = _first_key(counts, first_key)
    if mode == "distinct_unbiased":
        if n != len(counts):
            raise InputError("distinct_unbiased requires all-distinct items")
        if n < 2:
            raise InputError("need at least two items")
    # (arrival i, bound, lo, eq) before the first draw: arrival i is drawn
    # from ``bound`` remaining items, ``eq`` copies of the first arrival's
    # key, ``lo`` items below it and the rest above
    ranges = None
    if first_key is not None:
        c_below = sum(c for k, c in counts.items() if k < first_key)
        start = (2, n - 1, c_below, counts[first_key] - 1)
    else:
        start = (1, n, 0, 0)
        if mode != "distinct_unbiased":
            # the first arrival's rank selects the key whose count range holds it
            prefix = list(itertools.accumulate((counts[k] for k in sorted(counts)), initial=0))
            ranges = (prefix[:-1], [e - 1 for e in prefix[1:]])  # each key's first and last rank
    if n == 0 or start[1] > _MASK64 + 1:  # no trial draws on a larger bound
        raise InputError(f"bound must lie in [1, 2**64], got {start[1]}")

    ones = nobit = 0
    for t0 in range(0, trials, _CHUNK):
        o, b = _chunk_counts(seed, t0, min(_CHUNK, trials - t0), start, ranges, mode)
        ones += o
        nobit += b
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


# Trials packed into one int.  Its ints stay near 64 KB; 50,000 lanes at
# once raised the bias command's peak RSS by about 7 MB.
_CHUNK = 4096


def _lane_consts(k):
    """(one, mask, gamma, top) for k 128-bit lanes: 1, 2**64 - 1, the
    splitmix64 gamma and 2**64 in every lane.  A lane holds a value below
    2**64; its upper half takes the carries and products that stay in it."""
    one = int.from_bytes(b"\1".ljust(16, b"\0") * k, "little")
    return one, one * _MASK64, one * _GAMMA, one << 64


def _pack(values):
    """The int whose 128-bit lane j holds ``values[j]`` (each below 2**64)."""
    values = array("Q", values)
    words = array("Q", bytes(16 * len(values)))
    words[::2] = values
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words, "little")


def _unpack(x, k):
    """The values in the k lanes of ``x``, lane 0 first."""
    words = array("Q", x.to_bytes(16 * k, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2]


def _finalize_lanes(z, mask):
    """The splitmix64 finalizer on every lane of z.  ``mask`` clears the bits
    a shift moved across a lane boundary before each multiply, and the
    product's high word after it."""
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


def _split_lanes(seed, t0, k):
    """``split_seed(seed, t)`` for t = t0 .. t0 + k - 1, one per lane."""
    one, mask, gamma, _ = _lane_consts(k)
    z = _finalize_lanes((_pack(range(t0, t0 + k)) + gamma) & mask, mask)
    return _finalize_lanes(((z ^ _mix64(seed & _MASK64) * one) + gamma) & mask, mask)


def _repack(flags, k, *xs):
    """(j, _lane_consts(j), *packed): the j lanes of ``flags`` that are set,
    taken in order from each k-lane int in ``xs`` and packed anew."""
    keep = _unpack(flags, k)
    j = flags.bit_count()
    return j, _lane_consts(j), *(x and _pack(itertools.compress(_unpack(x, k), keep))
                                 for x in xs)


def _chunk_counts(seed, t0, k, start, ranges, mode):
    """(ones, no_bit) of trials t0 .. t0 + k - 1, run as 128-bit lanes.

    Lane j of ``state``, ``lo`` and ``eq`` holds a trial's stream and counts,
    and every lane of a work item draws on the same bound, so each op on
    these ints advances all its trials at once.  A flag is bit 0 of a lane;
    ``live`` flags the undecided trials.  The first item holds the whole
    chunk.  Lanes whose draw Lemire's method rejects leave as a new item at
    the same arrival and bound, since their streams have already advanced
    to the redraw; a work list, not recursion, takes them, as one trial may
    be rejected thousands of times.  When every live lane is rejected, the
    item itself redraws at that arrival.  Once at most half of an item's lanes
    are live, the live ones are repacked.
    """

    def ge(x, y):  # [x >= y] per lane, for x < 2**64 and y <= 2**64
        return ((x + top - y) >> 64) & one

    i, bound, lo, eq = start
    consts = _lane_consts(k)
    work = [(i, bound, k, consts, _split_lanes(seed, t0, k), lo * consts[0], eq * consts[0])]
    ones = nobit = 0
    while work:
        i, bound, k, (one, mask, gamma, top), state, lo, eq = work.pop()
        live = one
        while live:
            if i == 2:
                # eq - bound stays fixed from here: a lane whose key holds
                # every remaining item never emits
                stuck = live & ge(eq, bound * one)
                nobit += stuck.bit_count()
                live ^= stuck
                if not live:  # no lane draws again; the bound may be 0
                    break
            state = (state + gamma) & mask
            m = _finalize_lanes(state, mask) * bound
            r = (m >> 64) & mask
            threshold = (_MASK64 + 1 - bound) % bound
            # Lemire rejects a draw whose low word is below the threshold
            if threshold and (redraw := live & ge((threshold - 1) * one, m & mask)):
                if redraw == live:  # every live lane redraws here, in place
                    continue
                work.append((i, bound, *_repack(redraw, k, state, lo, eq)))
                live ^= redraw
            if i == 1:
                if ranges is None:  # every key is distinct
                    lo, eq = r, 0
                else:
                    firsts, lasts = ranges
                    js = list(map(bisect.bisect_left, itertools.repeat(lasts), _unpack(r, k)))
                    lo = _pack(map(firsts.__getitem__, js))
                    eq = _pack(map(lasts.__getitem__, js)) - lo
            else:
                hit = ge(r, eq)  # arrival i differs from the first
                done = live & hit
                if i == 2 and mode != "process1":
                    # combine emits [second < first], distinct_unbiased the opposite
                    above = (done & ge(r, lo + eq)).bit_count()
                    ones += above if mode == "distinct_unbiased" else done.bit_count() - above
                elif (i + (mode == "process1")) % 2:
                    ones += done.bit_count()
                live ^= done
                eq -= one ^ hit
                lo = 0  # read at arrival 2 only
            i += 1
            bound -= 1
            if live and 2 * live.bit_count() <= k:
                k, (one, mask, gamma, top), state, lo, eq = _repack(live, k, state, lo, eq)
                live = one
    return ones, nobit


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
    c0 = int(Fraction(alpha) * n)
    if c0 < 1 or c0 >= n:
        raise InputError("alpha*n must leave at least one item of each type")
    return {(0,): c0, (1,): n - c0}


def first_frequency_counts(r, n):
    """Worst-case family for ``combine``: copies of a median key, rest distinct.

    floor(r*n) copies of key 0 plus n - floor(r*n) pairwise distinct keys
    split as evenly as possible below and above 0.  Conditioning the first
    arrival on key 0 reproduces the closed form (1-r)/2 + r/(1+r): distinct
    seconds fall below or above the median with near-equal probability, and
    the identical branch sees the remaining copies with share ~r.
    """
    copies = int(Fraction(r) * n)
    if copies < 1 or copies >= n:
        raise InputError("r*n must leave at least one distinct item")
    rest = n - copies
    below = rest // 2
    above = rest - below
    counts = {(0,): copies}
    counts.update(((-i,), 1) for i in range(1, below + 1))
    counts.update(((i,), 1) for i in range(1, above + 1))
    return counts


def all_distinct_counts(n):
    if n < 2:
        raise InputError("need at least two items")
    return {(i,): 1 for i in range(n)}


def bias_family(mode, param, n):
    """The instance family behind a mode's bias curve, as (predicted,
    counts, first_key): process1 uses the two-type family, combine the
    first-frequency worst-case family with the first arrival conditioned on
    the copied key, and distinct_unbiased all-distinct keys (``param`` is
    not read)."""
    if mode == "process1":
        return process1_predicted(param), two_type_counts(param, n), None
    if mode == "combine":
        return combine_predicted(param), first_frequency_counts(param, n), (0,)
    if mode == "distinct_unbiased":
        return Fraction(1, 2), all_distinct_counts(n), None
    raise InputError(f"unknown mode {mode!r}")


def bias_curve(mode, params, n_items, trials, seed):
    """(parameter, predicted, empirical, stderr) rows for a parameter grid,
    sampled on ``bias_family``."""
    rows = []
    for ix, param in enumerate(params):
        predicted, counts, first_key = bias_family(mode, param, n_items)
        rep = empirical_bias(counts, mode, trials, split_seed(seed, 1000 + ix),
                             first_key=first_key)
        rows.append(
            {
                "parameter": param,
                "predicted": predicted,
                "empirical": rep.prob_one,
                "stderr": rep.stderr,
            }
        )
    return rows
