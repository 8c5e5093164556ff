"""De-randomized weighted interval selection with revoking.

Every variant runs one skeleton, ``_rom``: greedy over the pseudo-identical
prefix, the COMBINE bit that ``extraction.harvest`` takes at the first
distinct (weight, length) key, then two branches A and B from the anchor,
the last greedily accepted interval, that pick winners in alternating
slots; bit 1 selects A.  Single-length instances use fixed slots of width p;
monotone and C-benevolent instances use the adaptive slot chain where each
new slot is bounded by the end of the interval accepted in the previous one.
A variant's instance rule holds for every arrival order or for none, so
``harness.scale_intervals`` checks it once per instance.

Intervals carry integer release/length/weight (rescaled rationals); an
interval occupies [release, release + length) and half-open windows that
merely touch do not conflict.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .extraction import harvest


@dataclass(frozen=True)
class Interval:
    release: int
    length: int
    weight: int
    label: int = 0

    @property
    def end(self):
        return self.release + self.length


def feasible_selection(intervals):
    ivs = sorted(intervals, key=lambda iv: iv.release)
    return all(ivs[i].end <= ivs[i + 1].release for i in range(len(ivs) - 1))


# ---------------------------------------------------------------------------
# offline oracle: classic weighted interval scheduling DP
# ---------------------------------------------------------------------------


def offline_opt_intervals(intervals):
    """Exact maximum-weight non-overlapping subset value."""
    if not intervals:
        return 0
    ivs = sorted(intervals, key=lambda iv: (iv.end, iv.release))
    ends = [iv.end for iv in ivs]
    best = [0] * (len(ivs) + 1)
    for j, iv in enumerate(ivs, start=1):
        pred = bisect.bisect_right(ends, iv.release, 0, j - 1)
        take = iv.weight + best[pred]
        best[j] = take if take > best[j - 1] else best[j - 1]
    return best[-1]


# ---------------------------------------------------------------------------
# the ROM skeleton: greedy prefix, the bit, two branches from the anchor
# ---------------------------------------------------------------------------


@dataclass
class IntervalRun:
    """One arrival order's run: the greedy prefix before the anchor, both
    branches from the anchor on (bit 1 takes ``a``, bit 0 takes ``b``), and
    ``cover``, a bound on OPT from the anchor on.  With no bit, the prefix
    is the greedy run over all arrivals and the branches are empty."""

    bit: int
    anchor_index: int  # arrival index of the last greedily accepted interval
    prefix: list
    a: list
    b: list
    cover: int

    @property
    def accepted(self):
        return self.prefix + (self.a if self.bit == 1 else self.b)

    @property
    def value(self):
        return sum(iv.weight for iv in self.accepted)


def _rom(arrivals, branches):
    """Greedy over the pseudo-identical prefix, accepting whatever does not
    conflict with the last acceptance (earliest deadline first, as arrivals
    are release-sorted), up to the bit; the last acceptance is the anchor.
    ``branches(suffix)`` returns ``(a, b, cover)`` for the arrivals from the
    anchor on."""
    bit, switch = harvest((iv.weight, iv.length) for iv in arrivals)
    kept = []  # arrival indices of the greedy acceptances
    for ix in range(len(arrivals) if switch is None else switch):
        if not kept or arrivals[ix].release >= arrivals[kept[-1]].end:
            kept.append(ix)
    prefix = [arrivals[ix] for ix in kept]
    if switch is None:
        return IntervalRun(None, None, prefix, [], [], 0)
    a, b, cover = branches(arrivals[kept[-1]:])
    return IntervalRun(bit, kept[-1], prefix[:-1], a, b, cover)


# ---------------------------------------------------------------------------
# single-length slots
# ---------------------------------------------------------------------------


def slot_winners(intervals, origin, width):
    """Heaviest interval released in each fixed slot [origin+k*w, origin+(k+1)*w).

    Ties keep the earliest arrival.  Returns {slot_index (1-based): Interval}.
    Every interval releases at or after ``origin``, as the suffix of a
    release-sorted instance from its anchor does.
    """
    winners = {}
    for iv in intervals:
        k = (iv.release - origin) // width + 1
        cur = winners.get(k)
        if cur is None or iv.weight > cur.weight:
            winners[k] = iv
    return winners


def _slot_branches(suffix):
    """Fixed slots from the anchor: the odd branch re-feeds the anchor
    interval through slot 1; the even branch keeps the anchor and adds the
    even-slot winners."""
    anchor = suffix[0]
    winners = slot_winners(suffix, anchor.release, anchor.length)
    odd = [iv for k, iv in sorted(winners.items()) if k % 2 == 1]
    even = [iv for k, iv in sorted(winners.items()) if k % 2 == 0]
    return odd, [anchor] + even, sum(iv.weight for iv in winners.values())


def rom_single_length(arrivals):
    """Greedy pseudo-identical prefix, then fixed slots from the anchor;
    bit 1 selects the odd branch."""
    return _rom(arrivals, _slot_branches)


# ---------------------------------------------------------------------------
# adaptive slots (monotone and C-benevolent instances)
# ---------------------------------------------------------------------------


def _winner_key(variant):
    if variant == "c_benevolent":
        return lambda iv: (iv.length, iv.weight, -iv.label)
    return lambda iv: (iv.weight, iv.length, -iv.label)


def _qualifies(variant, end, slot_end):
    # monotone deadlines already satisfy end >= slot_end for every interval
    # releasing after the slot owner; ties at the boundary stay selectable.
    if variant == "monotone":
        return end >= slot_end
    return end > slot_end


def adaptive_slots_run(intervals, variant):
    """Chain phases of adaptive slots; branch B opens each phase.

    Within a phase, slot_1 = [t0, d1) is scanned by A while B holds the
    phase opener; thereafter slot_i = [d_{i-1}, d_i) and the roles
    alternate.  A slot candidate must release inside the slot and end after
    it; the phase ends when a slot has no candidate.  Returns A's and B's
    intervals and the (start, end) of each slot in chain order.
    """
    key = _winner_key(variant)
    ivs = sorted(intervals, key=lambda iv: (iv.release, iv.label))
    a_acc, b_acc, slots = [], [], []
    pos = 0
    n = len(ivs)
    while pos < n:
        t0 = ivs[pos].release
        pool = []
        while pos < n and ivs[pos].release == t0:
            pool.append(ivs[pos])
            pos += 1
        opener = max(pool, key=key)
        b_acc.append(opener)
        slot_start, slot_end = t0, opener.end
        slot_index = 1
        while True:
            slots.append((slot_start, slot_end))
            candidates = []
            while pos < n and ivs[pos].release < slot_end:
                if _qualifies(variant, ivs[pos].end, slot_end):
                    candidates.append(ivs[pos])
                pos += 1
            if not candidates:
                break
            winner = max(candidates, key=key)
            if slot_index % 2 == 1:
                a_acc.append(winner)
            else:
                b_acc.append(winner)
            slot_start, slot_end = slot_end, winner.end
            slot_index += 1
    return a_acc, b_acc, slots


def rom_adaptive(arrivals, variant):
    """Greedy pseudo-identical prefix, then the adaptive chain from the anchor;
    bit 1 selects branch A, bit 0 branch B."""

    def chain_branches(suffix):
        a, b, _ = adaptive_slots_run(suffix, variant)
        return a, b, sum(iv.weight for iv in a + b)

    return _rom(arrivals, chain_branches)
