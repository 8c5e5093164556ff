"""One-bit extraction processes and bias oracles.

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
``process1``.  On the first-frequency family (``bias_family``'s combine
family: a share r of copies of a median key, which arrives first, the rest
distinct) combine's Pr(b=1) tends to (1-r)/2 + r/(1+r) as n grows, at most
2 - sqrt(2), reached at r = sqrt(2) - 1.  That limit bounds no finite input:
the exact bias is 1/2 on three distinct keys and 2/3 on key counts
{A: 1, B: 2}.  ``process1`` tends to 2/3 on two equal halves (its family
at alpha 1/2), and gives exactly 1 on distinct keys.

``harvest`` holds all three rules, and is the one place where applications
take their bit; the exact distinct conditional sums its rule over class
counts, with ``harvest`` on each pair as its test reference.  Every
application's run is a ``Run``, whose bit ``commit``s it to one branch.

Bias oracles come in two routes that never share code paths: the exact law
of the first unlike arrival (n <= ``EXACT_GUARD``), whose reference in the
tests is enumeration of every order through ``harvest``, and Monte Carlo
sampling without replacement from a key multiset (any n).  Both read a
``Profile``, the class counts in key order run-length encoded as (count,
classes) groups with an optional first class: ``_key_counts``, the one
input check of every oracle, reduces a counts dict, an ``Instance`` or a
key stream to it once, and the bias families build it in O(groups) at any
n.  The law costs O(count) per group; Monte Carlo maps a first arrival's
rank to its class by bisection over the groups and arithmetic within one.
Monte Carlo trials run ``_CHUNK`` at a time as the 128-bit lanes of one
Python int: the lanes compute the key ``split_seed(seed, t)`` and draw from
the splitmix64 counter stream it keys, so one big-int op advances every
trial of a chunk.  A lane whose draw Lemire's method rejects redraws in
place from its own stream, and the other lanes keep their draws.  The tests
keep the object form, a ``CounterStream`` per trial, as the reference the
lanes must match draw for draw.  All other randomness in the package uses
``rng_for``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core import (
    PAYLOAD_FIELDS,
    CapacityError,
    InputError,
    Instance,
    _GAMMA,
    _MASK64,
    _mix64,
    split_seed,
)

MODES = ("process1", "distinct_unbiased", "combine")

EXACT_GUARD = 10**5  # the largest n of the exact law, whose sums cost O(n) big-int steps


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
    that subclass it add the fields their audit or their tests read."""

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


class Profile(NamedTuple):
    """A key multiset as its class counts in key order, run-length encoded:
    ``groups`` holds (count, classes) pairs, none empty and no two
    neighbours of one count.  ``first`` is the class index the first arrival
    is conditioned on, or None.  Every bias route reads only this."""

    groups: tuple
    first: int = None


def _profile(groups, first=None):
    """The Profile of (count, classes) groups in key order: empty groups are
    dropped and neighbours of one count merged."""
    runs = itertools.groupby((g for g in groups if g[1]), key=lambda g: g[0])
    return Profile(tuple((c, sum(m for _, m in run)) for c, run in runs), first)


def _key_counts(source, mode, first_key=None):
    """(profile, n) of an Instance, a key iterable or a key -> count dict,
    with the first arrival conditioned on ``first_key`` when given; a
    Profile, which names its own first class, is taken as it is.  The one
    input check of the bias oracles: InputError on an unknown ``mode``, key
    tuples of more than one length, counts that are not positive ints, or a
    ``first_key`` that is not present."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    if isinstance(source, Profile):
        classes = range(sum(m for _, m in source.groups))
        if first_key is not None or not (source.first is None or source.first in classes):
            raise InputError("a profile names its own first class, one of its classes")
        prof = source
    else:
        if isinstance(source, dict):
            if not all(type(c) is int and c > 0 for c in source.values()):
                raise InputError("key counts must be positive ints")
            counts = source
        else:
            if isinstance(source, Instance):
                source = zip(*(source.columns[f] for f in PAYLOAD_FIELDS[source.problem][:2]))
            counts = {}
            for k in source:
                k = tuple(k)
                counts[k] = counts.get(k, 0) + 1
        if len(lengths := set(map(len, counts))) > 1:
            raise InputError(f"key dimension mismatch: lengths {sorted(lengths)}")
        keys = sorted(counts)
        first = None
        if first_key is not None:
            first_key = tuple(first_key)
            if first_key not in counts:
                raise InputError(f"first_key {first_key!r} not present in the instance")
            first = bisect.bisect_left(keys, first_key)
        runs = itertools.groupby(map(counts.__getitem__, keys))
        prof = _profile(((c, len(list(g))) for c, g in runs), first)
    return prof, sum(c * m for c, m in prof.groups)


def _first_class(prof):
    """(items below, count) of the profile's first class."""
    below, f = 0, prof.first
    for c, m in prof.groups:
        if f < m:
            return below + f * c, c
        below += c * m
        f -= m


def exact_bias(source, mode, first_key=None):
    """Exact Pr(b=1) over all arrival orders (n <= EXACT_GUARD) by the law of
    the first unlike arrival.  The first arrival's class K has c items,
    ``below`` under it, and J copies of K follow it straight away: Pr(J >= j)
    = C(n-1-j, n-c) / C(n-1, n-c).  process1 emits 1 when J is even, combine
    when J is odd or, at J = 0, the second is smaller (Pr below/(n-1)), and
    distinct_unbiased (c = 1) when it is larger.  Each class weighs c/n, or
    ``first_key``'s alone; no bit (K holds every item) is ``no_bit`` mass.
    An ``Instance`` source's keys, and so its ``first_key``, are ints over
    its ``den``, like ``Item.key``."""
    prof, n = _key_counts(source, mode, first_key)
    if n > EXACT_GUARD:
        raise CapacityError(f"n={n} exceeds the exact bias guard {EXACT_GUARD}")
    if prof.first is None:  # (c, classes, their below values summed, weight)
        bases = itertools.accumulate((c * m for c, m in prof.groups), initial=0)
        terms = [(c, m, m * b + c * m * (m - 1) // 2, Fraction(c, n))
                 for (c, m), b in zip(prof.groups, bases)]
    else:
        below, c = _first_class(prof)
        terms = [(c, 1, below, 1)]
    ones, nobit = Fraction(0), Fraction(n == 0)  # an empty stream emits nothing
    for c, m, below, w in terms:
        if mode == "distinct_unbiased" and c > 1:
            raise InputError("distinct_unbiased requires two distinct keys")
        if c == n:
            nobit += w * m
        elif mode == "distinct_unbiased":
            ones += w * (m - Fraction(below, n - 1))
        else:  # Pr(J even) as the alternating sum of Pr(J >= j), j < c
            t = total = math.comb(n - 1, n - c)  # C(n-1-j, n-c) at step j
            even = 0
            for j in range(c):
                even += -t if j % 2 else t
                t = t * (c - 1 - j) // (n - 1 - j)
            even = Fraction(even, total)
            ones += w * (m * even if mode == "process1" else
                         m * (1 - even) + Fraction(below, n - 1))
    return BiasReport(mode, ones, nobit, n)


def exact_distinct_conditional(source, mode="combine"):
    """Exact Pr(b=1 | first two arrivals distinct), or None if undefined.
    The bit of two distinct first arrivals depends only on which is smaller:
    process1 emits 1, combine 1 when the second is smaller, and
    distinct_unbiased 1 when it is larger.  With n items in classes of c_k,
    the ordered pairs of distinct classes weigh n^2 - sum c_k^2, half of it
    with the second smaller; a profile's named first class, c items with
    ``below`` under it, weighs c (n - c), c below of it with the second
    smaller.  O(groups) for any n.  An ``Instance`` source's keys are ints
    over its ``den``, like ``Item.key``."""
    prof, n = _key_counts(source, mode)
    if prof.first is None:
        total = n * n - sum(c * c * m for c, m in prof.groups)
        smaller = total // 2
    else:
        below, c = _first_class(prof)
        total, smaller = c * (n - c), c * below
    ones = {"process1": total, "combine": smaller}.get(mode, total - smaller)
    return Fraction(ones, total) if total else None


def empirical_bias(source, mode, trials, seed, first_key=None):
    """Monte Carlo Pr(b=1) over ROM arrivals sampled without replacement.

    ``first_key`` conditions every trial on the first arrival being an item
    with that key; this realizes the worst-case analyses that fix the
    frequency of the first-arriving type.  A ``Profile`` source names its
    first class itself.  An ``Instance`` source's keys, and so its
    ``first_key``, are ints over its ``den``, like ``Item.key``.

    Trial t reads the splitmix64 counter stream keyed by ``split_seed(seed,
    t)``, so its outcome depends only on (seed, t).  Draw k is the splitmix64
    finalizer of key + k*gamma (Steele, Lea and Flood, OOPSLA 2014), taken to
    [0, bound) by Lemire's multiply-shift (ACM TOMACS 2019): the high word of
    x*bound, redrawn while the low word falls under 2**64 mod bound.  Only
    the category of each arrival relative to the first (below / equal /
    above) matters, so a trial reads the counts of the first arrival's key
    and costs O(#draws), whatever the keys.  Trials run in chunks of
    ``_CHUNK``, each chunk as the lanes of ``_chunk_counts``, where a lane
    whose draw is rejected redraws in place; every trial takes the draws it
    would take alone, so the result does not depend on the chunk size.  An
    empty source gives no bit in every trial, as in the exact law.
    """
    if trials < 1:
        raise InputError("trials must be >= 1")
    prof, n = _key_counts(source, mode, first_key)
    # (arrival i, bound, lo, eq) before the first draw: arrival i is drawn
    # from ``bound`` remaining items, ``eq`` copies of the first arrival's
    # key, ``lo`` items below it and the rest above
    ranges = None
    if prof.first is not None:
        below, c = _first_class(prof)
        start = (2, n - 1, below, c - 1)
    else:
        start = (1, n, 0, 0)
        if (c := max((g[0] for g in prof.groups), default=0)) > 1:
            # each group's end rank (bar the last), first rank, count and eq
            ends = list(itertools.accumulate(c * m for c, m in prof.groups))
            sizes = [c for c, _ in prof.groups]
            ranges = (ends[:-1], [0, *ends[:-1]], sizes, [c - 1 for c in sizes])
    if mode == "distinct_unbiased" and c > 1:  # the first two arrivals may be equal
        raise InputError("distinct_unbiased requires two distinct keys")
    if start[1] > _MASK64 + 1:  # no trial draws on a larger bound
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
    top = one << 64
    return one, top - one, one * _GAMMA, top


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


def _split_lanes(seed, t0, k, consts):
    """``split_seed(seed, t)`` for t = t0 .. t0 + k - 1, one per lane;
    ``consts`` are ``_lane_consts(k)``."""
    one, mask, gamma, _ = consts
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
    and every lane draws arrival i on the same bound, so each op on these
    ints advances all live trials at once.  A flag is bit 0 of a lane;
    ``live`` flags the undecided trials.  A lane whose draw Lemire's method
    rejects advances its own stream and redraws in place, while the other
    lanes' states, and so their draws, stay as they are; one trial may be
    rejected thousands of times.  Once at most half of the lanes are live,
    the live ones are repacked.
    """

    def ge(x, y):  # [x >= y] per lane, for x < 2**64 and y <= 2**64
        return ((x + top - y) >> 64) & one

    i, bound, lo, eq = start
    one, mask, gamma, top = consts = _lane_consts(k)
    state, lo, eq = _split_lanes(seed, t0, k, consts), lo * one, eq * one
    live = one
    ones = nobit = 0
    while live:
        if i == 2 or not bound:
            # a lane whose key holds every remaining item never emits (eq -
            # bound stays fixed from arrival 2); with no items, no lane does
            stuck = live & ge(eq, bound * one)
            nobit += stuck.bit_count()
            live ^= stuck
            if not live:  # no lane draws again; the bound may be 0
                break
        state = (state + gamma) & mask
        m = _finalize_lanes(state, mask) * bound
        threshold = (_MASK64 + 1 - bound) % bound
        # Lemire rejects a draw whose low word is below the threshold
        while threshold and (redraw := live & ge((threshold - 1) * one, m & mask)):
            state = (state + _GAMMA * redraw) & mask
            m = _finalize_lanes(state, mask) * bound
        r = (m >> 64) & mask
        if i == 1:
            if ranges is None:  # every key is distinct
                lo, eq = r, 0
            else:
                # a rank's group by bisection, its class by arithmetic in it
                ends, firsts, sizes, eqs = ranges
                ranks = _unpack(r, k)
                js = list(map(bisect.bisect_right, itertools.repeat(ends), ranks))
                eq = _pack(map(eqs.__getitem__, js))
                if mode != "process1":  # lo is read at arrival 2 only
                    lo = _pack(map(operator.sub, ranks, map(operator.mod, map(
                        operator.sub, ranks, map(firsts.__getitem__, js)),
                        map(sizes.__getitem__, js))))
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


def bias_family(mode, param, n):
    """The instance family behind a mode's bias curve, as (predicted,
    profile), built in O(1) at any n.

    process1 uses two keys with floor(alpha*n) copies of the first.
    combine uses its worst-case family, conditioned on the first arrival
    being the copied key: floor(r*n) copies of a median key plus pairwise
    distinct keys split as evenly as possible below and above it.  Distinct
    seconds fall below or above the median with near-equal probability, and
    the identical branch sees the remaining copies with share ~r, which
    gives the closed form (1-r)/2 + r/(1+r).  distinct_unbiased uses n
    distinct keys (``param`` is not read).
    """
    if mode == "process1":
        predicted, c0 = process1_predicted(param), int(Fraction(param) * n)
        if c0 < 1 or c0 >= n:
            raise InputError("alpha*n must leave at least one item of each type")
        return predicted, _profile([(c0, 1), (n - c0, 1)])
    if mode == "combine":
        predicted, copies = combine_predicted(param), int(Fraction(param) * n)
        if copies < 1 or copies >= n:
            raise InputError("r*n must leave at least one distinct item")
        below = (n - copies) // 2
        return predicted, _profile([(1, below), (copies, 1), (1, n - copies - below)], below)
    if mode == "distinct_unbiased":
        if n < 2:
            raise InputError("need at least two items")
        return Fraction(1, 2), _profile([(1, n)])
    raise InputError(f"unknown mode {mode!r}")


def bias_curve(mode, params, n_items, trials, seed):
    """(parameter, predicted, empirical, stderr) rows for a parameter grid,
    sampled on ``bias_family``."""
    rows = []
    for ix, param in enumerate(params):
        predicted, profile = bias_family(mode, param, n_items)
        rep = empirical_bias(profile, mode, trials, split_seed(seed, 1000 + ix))
        rows.append(
            {
                "parameter": param,
                "predicted": predicted,
                "empirical": rep.prob_one,
                "stderr": rep.stderr,
            }
        )
    return rows
