"""De-randomized weighted interval selection with revoking.

Single-length instances use fixed slots of width p anchored at the last
greedily accepted interval; monotone and C-benevolent instances use the
adaptive slot chain where each new slot is bounded by the end of the
interval accepted in the previous one.  In both cases two deterministic
branches pick winners in alternating slots, and the COMBINE bit that
``extraction.harvest`` takes at the first distinct (weight, length) key
selects one branch.

Intervals carry integer release/length/weight (rescaled rationals); an
interval occupies [release, release + length) and half-open windows that
merely touch do not conflict.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .core import InputError
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


@dataclass
class Selection:
    accepted: list

    @property
    def value(self):
        return sum(iv.weight for iv in self.accepted)


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
# single-length slots
# ---------------------------------------------------------------------------


def slot_winners(intervals, origin, width):
    """Heaviest interval released in each fixed slot [origin+k*w, origin+(k+1)*w).

    Ties keep the earliest arrival.  Returns {slot_index (1-based): Interval}.
    """
    winners = {}
    for iv in intervals:
        if iv.release < origin:
            raise InputError("interval releases before the slot origin")
        k = (iv.release - origin) // width + 1
        cur = winners.get(k)
        if cur is None or iv.weight > cur.weight:
            winners[k] = iv
    return winners


@dataclass
class SingleLengthRun:
    selection: Selection
    prefix_accepted: list
    anchor_index: int  # arrival index of the last greedily accepted interval
    bit: int
    odd_value: int
    even_value: int
    winners: dict


def greedy_prefix(arrivals, stop_index):
    """Earliest-deadline greedy over arrivals[0:stop_index] (release-sorted,
    pseudo-identical): accept whatever does not conflict with the last
    acceptance."""
    accepted = []
    last_end = None
    for ix in range(stop_index):
        iv = arrivals[ix]
        if last_end is None or iv.release >= last_end:
            accepted.append((ix, iv))
            last_end = iv.end
    return accepted


def rom_single_length(arrivals):
    """Greedy pseudo-identical prefix, then fixed slots from the anchor.

    The odd branch re-feeds the anchor interval through slot 1; the even
    branch keeps the anchor and adds the even-slot winners.  Bit 1 selects
    the odd branch.
    """
    lengths = {iv.length for iv in arrivals}
    if len(lengths) > 1:
        raise InputError("single-length instance has mixed lengths")
    bit, switch = harvest((iv.weight, iv.length) for iv in arrivals)
    if switch is None:
        accepted = [iv for _, iv in greedy_prefix(arrivals, len(arrivals))]
        sel = Selection(accepted=accepted)
        return SingleLengthRun(
            selection=sel, prefix_accepted=accepted, anchor_index=None, bit=None,
            odd_value=sel.value, even_value=sel.value, winners={},
        )
    prefix = greedy_prefix(arrivals, switch)
    anchor_ix, anchor = prefix[-1]
    kept_prefix = [iv for _, iv in prefix[:-1]]
    winners = slot_winners(arrivals[anchor_ix:], anchor.release, anchor.length)
    odd = [iv for k, iv in sorted(winners.items()) if k % 2 == 1]
    even = [iv for k, iv in sorted(winners.items()) if k % 2 == 0]
    prefix_value = sum(iv.weight for iv in kept_prefix)
    odd_value = prefix_value + sum(iv.weight for iv in odd)
    even_value = prefix_value + anchor.weight + sum(iv.weight for iv in even)
    if bit == 1:
        accepted = kept_prefix + odd
    else:
        accepted = kept_prefix + [anchor] + even
    return SingleLengthRun(
        selection=Selection(accepted=accepted), prefix_accepted=kept_prefix,
        anchor_index=anchor_ix, bit=bit,
        odd_value=odd_value, even_value=even_value, winners=winners,
    )


# ---------------------------------------------------------------------------
# adaptive slots (monotone and C-benevolent instances)
# ---------------------------------------------------------------------------


def _winner_key(variant):
    if variant == "c_benevolent":
        return lambda iv: (iv.length, iv.weight, -iv.label)
    if variant == "monotone":
        return lambda iv: (iv.weight, iv.length, -iv.label)
    raise InputError(f"unknown adaptive variant {variant!r}")


def _qualifies(variant, end, slot_end):
    # monotone deadlines already satisfy end >= slot_end for every interval
    # releasing after the slot owner; ties at the boundary stay selectable.
    if variant == "monotone":
        return end >= slot_end
    return end > slot_end


def validate_variant(intervals, variant):
    ivs = sorted(intervals, key=lambda iv: (iv.release, iv.label))
    if variant == "monotone":
        for a, b in zip(ivs, ivs[1:]):
            if a.release < b.release and a.end > b.end:
                raise InputError("monotone constraint violated")
    elif variant == "c_benevolent":
        by_len = {}
        for iv in ivs:
            if by_len.setdefault(iv.length, iv.weight) != iv.weight:
                raise InputError("C-benevolent weights must be a function of length")
        lens = sorted(by_len)
        for a, b in zip(lens, lens[1:]):
            if by_len[a] >= by_len[b]:
                raise InputError("C-benevolent weights must increase with length")
    else:
        raise InputError(f"unknown adaptive variant {variant!r}")


@dataclass
class AdaptiveTrace:
    a_accepted: list
    b_accepted: list
    slots: list  # (start, end) per slot in chain order


def adaptive_slots_run(intervals, variant):
    """Chain phases of adaptive slots; branch B opens each phase.

    Within a phase, slot_1 = [t0, d1) is scanned by A while B holds the
    phase opener; thereafter slot_i = [d_{i-1}, d_i) and the roles
    alternate.  A slot candidate must release inside the slot and end after
    it; the phase ends when a slot has no candidate.
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
    return AdaptiveTrace(a_accepted=a_acc, b_accepted=b_acc, slots=slots)


@dataclass
class AdaptiveRun:
    selection: Selection
    trace: AdaptiveTrace
    prefix_accepted: list
    anchor_index: int
    bit: int
    a_value: int
    b_value: int


def rom_adaptive(arrivals, variant):
    """Greedy pseudo-identical prefix, then the adaptive chain from the anchor;
    bit 1 selects branch A, bit 0 branch B."""
    validate_variant(arrivals, variant)
    bit, switch = harvest((iv.weight, iv.length) for iv in arrivals)
    if switch is None:
        accepted = [iv for _, iv in greedy_prefix(arrivals, len(arrivals))]
        sel = Selection(accepted=accepted)
        return AdaptiveRun(
            selection=sel, trace=AdaptiveTrace([], [], []),
            prefix_accepted=accepted, anchor_index=None,
            bit=None, a_value=sel.value, b_value=sel.value,
        )
    prefix = greedy_prefix(arrivals, switch)
    anchor_ix, _ = prefix[-1]
    kept_prefix = [iv for _, iv in prefix[:-1]]
    trace = adaptive_slots_run(arrivals[anchor_ix:], variant)
    prefix_value = sum(iv.weight for iv in kept_prefix)
    a_value = prefix_value + sum(iv.weight for iv in trace.a_accepted)
    b_value = prefix_value + sum(iv.weight for iv in trace.b_accepted)
    branch = trace.a_accepted if bit == 1 else trace.b_accepted
    return AdaptiveRun(
        selection=Selection(accepted=kept_prefix + list(branch)), trace=trace,
        prefix_accepted=kept_prefix, anchor_index=anchor_ix, bit=bit,
        a_value=a_value, b_value=b_value,
    )
