"""De-randomized weighted interval selection with revoking.

An instance is its release column ``rel``: the fixed release int of each
arrival position, non-decreasing.  An arrival order is the column ``order``
of (length, weight) int pairs placed on those positions, so arrival k
occupies [rel[k], rel[k] + L_k); half-open windows that merely touch do not
conflict.  Selections are lists of arrival indices.

Every variant runs one skeleton, ``_rom``: greedy over the pseudo-identical
prefix, the COMBINE bit that ``extraction.harvest`` takes at the first
distinct (weight, length) key, then two branches A and B from the anchor,
the last greedily accepted arrival, that pick winners in alternating slots;
bit 1 selects A.  The run is an ``extraction.Run`` whose ``one`` and
``zero`` weigh the prefix plus A and the prefix plus B.  Single-length
instances use fixed slots of width p; monotone and C-benevolent instances
use the adaptive slot chain where each new slot is bounded by the end of
the arrival accepted in the previous one.  A variant's instance rule holds
for every arrival order or for none, so ``harness.scale_intervals`` checks
it once per instance.

The offline oracle is one backward pass over the release column: as
``rel`` is sorted and lengths are positive, arrival k conflicts exactly
with the later arrivals released before it ends, so the optimum over
arrivals k onward is ``max(S[k+1], w_k + S[first arrival released at or
after rel[k] + L_k])``.  One pass gives OPT and the optimum of every suffix.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .extraction import Run, harvest


def feasible_selection(rel, order, chosen):
    """No two of the ``chosen`` arrival indices overlap; an index listed
    twice overlaps itself."""
    ix = sorted(chosen, key=rel.__getitem__)
    return all(rel[i] + order[i][0] <= rel[j] for i, j in zip(ix, ix[1:]))


# ---------------------------------------------------------------------------
# offline oracle: suffix optima by one backward pass
# ---------------------------------------------------------------------------


def offline_opt_intervals(rel, order):
    """The suffix optima ``S`` of ``order`` placed on ``rel``: ``S[k]`` is the
    largest weight of non-overlapping arrivals among k, k+1, ..., and
    ``S[len(order)] == 0``, so OPT is ``S[0]``.  A prefix of an order is an
    order: OPT of arrivals before j is ``offline_opt_intervals(rel,
    order[:j])[0]``.

    Preconditions, both checked once at scaling: ``rel`` is sorted, and
    every length is > 0.
    """
    n = len(order)
    best = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        length, weight = order[k]
        take = weight + best[bisect.bisect_left(rel, rel[k] + length, k + 1, n)]
        best[k] = take if take > best[k + 1] else best[k + 1]
    return best


# ---------------------------------------------------------------------------
# the ROM skeleton: greedy prefix, the bit, two branches from the anchor
# ---------------------------------------------------------------------------


@dataclass
class IntervalRun(Run):
    """One arrival order's run, in arrival indices: the greedy prefix before
    the anchor, both branches from the anchor on (bit 1 takes ``a``, bit 0
    takes ``b``), and ``cover``, a bound on OPT from the anchor on.  ``one``
    weighs the prefix plus ``a`` and ``zero`` the prefix plus ``b``.  With
    no bit, the prefix is the greedy run over all arrivals and the branches
    are empty."""

    anchor_index: int  # the last greedily accepted arrival
    prefix: list
    a: list
    b: list
    cover: int


def _rom(rel, order, branches):
    """Greedy over the pseudo-identical prefix, accepting whatever does not
    conflict with the last acceptance (earliest deadline first, as arrivals
    are release-sorted), up to the bit; the last acceptance is the anchor.
    ``branches(anchor)`` returns ``(a, b, cover)`` for the arrivals from the
    anchor on."""
    bit, switch = harvest((w, length) for length, w in order)
    kept = []
    free = None  # the end of the last acceptance
    for ix in range(len(order) if switch is None else switch):
        if not kept or rel[ix] >= free:
            kept.append(ix)
            free = rel[ix] + order[ix][0]
    anchor, a, b, cover = None, [], [], 0
    if switch is not None:
        anchor = kept.pop()
        a, b, cover = branches(anchor)
    prefix = sum(order[ix][1] for ix in kept)
    return IntervalRun(bit, prefix + sum(order[ix][1] for ix in a),
                       prefix + sum(order[ix][1] for ix in b), anchor, kept, a, b, cover)


# ---------------------------------------------------------------------------
# single-length slots
# ---------------------------------------------------------------------------


def rom_single_length(rel, order):
    """Greedy pseudo-identical prefix, then fixed slots
    [rel[anchor] + (k-1)p, rel[anchor] + kp), k = 1, 2, ..., of the anchor's
    length p.  The heaviest arrival released in a slot wins it, ties keeping
    the earliest; ``cover`` is the weight of all winners.  Bit 1 selects the
    odd-slot winners, which re-feed the anchor through slot 1; bit 0 keeps
    the anchor and adds the even-slot winners."""

    def slot_branches(anchor):
        origin, width = rel[anchor], order[anchor][0]
        winners = {}  # slot k -> arrival index, filled in slot order
        for ix in range(anchor, len(order)):
            k = (rel[ix] - origin) // width + 1
            cur = winners.get(k)
            if cur is None or order[ix][1] > order[cur][1]:
                winners[k] = ix
        odd = [ix for k, ix in winners.items() if k % 2 == 1]
        even = [ix for k, ix in winners.items() if k % 2 == 0]
        return odd, [anchor] + even, sum(order[ix][1] for ix in winners.values())

    return _rom(rel, order, slot_branches)


# ---------------------------------------------------------------------------
# adaptive slots (monotone and C-benevolent instances)
# ---------------------------------------------------------------------------


def adaptive_slots_run(rel, order, start, variant):
    """Chain phases of adaptive slots over the arrivals from ``start`` on;
    branch B opens each phase.

    Within a phase, slot_1 = [t0, d1) is scanned by A while B holds the
    phase opener; thereafter slot_i = [d_{i-1}, d_i) and the roles
    alternate.  A slot candidate must release inside the slot and end after
    it (monotone: at or after, which monotone deadlines already give every
    arrival releasing after the slot owner); the phase ends when a slot has
    no candidate.  The winner is the candidate of the largest (weight,
    length), (length, weight) when C-benevolent, ties keeping the earliest
    arrival.  Returns A's and B's arrival indices and the (start, end) of
    each slot in chain order.
    """
    if variant == "c_benevolent":
        key = order.__getitem__
    else:
        def key(ix):
            return order[ix][::-1]
    reach = 0 if variant == "monotone" else 1  # ints: end > d is end >= d + 1
    a_acc, b_acc, slots = [], [], []
    pos, n = start, len(order)
    while pos < n:
        t0 = rel[pos]
        pool = pos
        while pos < n and rel[pos] == t0:
            pos += 1
        opener = max(range(pool, pos), key=key)
        b_acc.append(opener)
        slot_start, slot_end = t0, t0 + order[opener][0]
        to_a = True
        while True:
            slots.append((slot_start, slot_end))
            candidates = []
            while pos < n and rel[pos] < slot_end:
                if rel[pos] + order[pos][0] >= slot_end + reach:
                    candidates.append(pos)
                pos += 1
            if not candidates:
                break
            winner = max(candidates, key=key)
            (a_acc if to_a else b_acc).append(winner)
            slot_start, slot_end = slot_end, rel[winner] + order[winner][0]
            to_a = not to_a
    return a_acc, b_acc, slots


def rom_adaptive(rel, order, variant):
    """Greedy pseudo-identical prefix, then the adaptive chain from the anchor;
    bit 1 selects branch A, bit 0 branch B."""

    def chain_branches(anchor):
        a, b, _ = adaptive_slots_run(rel, order, anchor, variant)
        return a, b, sum(order[ix][1] for ix in a + b)

    return _rom(rel, order, chain_branches)
