"""De-randomized online knapsack with revoking.

Three ROM algorithms share the same skeleton: pack identical items greedily,
take the COMBINE bit at the first distinct item from ``extraction.harvest``,
then commit to one of two deterministic continuations.  Each run is an
``extraction.Run``: both continuations run on every order, and ``one`` and
``zero`` hold their values.

* proportional, two subroutines (aggressive / balanced) chosen by the bit;
* proportional, two-bin variant with an early-exit guard;
* general weights, GREEDY-by-density versus MAX-value.

``exact_revocation_tail`` is the closed form of the two-bin variant's
revocations on harness's ``adversarial`` instance: n-1 copies of
epsilon/n (epsilon <= 1) plus one unit item.

The proportional algorithms run on an order's weight column.  A1 and A2 are
one subroutine loop, ``subroutine_run``, with two placement rules,
``place_a1`` and ``place_a2``; each arrival's weight class is computed once
per order into a class column that both read by arrival index.  They decide
on held weights, arrival indices only label the record, and each run is a
fold whose steps an exact row's memo (``harness.Scaled``) runs once.

Unit capacity throughout.  Weights and values arrive as ints over their
instance's common denominator (``core.make_instance``), which is the
capacity ``cap``, so class boundaries such as 3/10 are decided by integer
cross-multiplication and the exhaustive permutation audits run on plain
ints.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction

from .core import CapacityError, InputError
from .extraction import Run, commit, harvest

OPT_GUARD = 24


def weight_class(w, cap=1):
    """Weight class from the printed thresholds; boundaries are exact.

    small w <= 3/10; M1 (3/10, 2/5]; M2 (2/5, 1/2]; M3 (1/2, 3/5);
    M4 [3/5, 7/10); large w >= 7/10.  Works on Fractions (cap=1) and on
    scaled integers alike.
    """
    t = 10 * w
    if t <= 3 * cap:
        return "S"
    if t <= 4 * cap:
        return "M1"
    if t <= 5 * cap:
        return "M2"
    if t < 6 * cap:
        return "M3"
    if t < 7 * cap:
        return "M4"
    return "L"


# ---------------------------------------------------------------------------
# proportional subroutines (aggressive A1, balanced A2)
# ---------------------------------------------------------------------------


def subroutine_run(weights, cls, cap, place, memo=None):
    """A1 or A2 on the order's weights and classes: a large arrival evicts
    everything else and completes the packing, an M4 arrival is remembered,
    and any other arrival goes with the contents, (weight, arrival) entries,
    to ``place``, which returns (contents, total, complete).  Returns the
    final contents and total, and the largest total after any step.

    The contents stay sorted by (weight, arrival); the rules decide on held
    weights and compare arrivals only among equal weights, so a step drops
    the same positions whatever the arrival indices, which only label the
    record.  The run is a fold over (held weights, M4 seen): ``memo``, one per
    exact row and ``cap``, maps (rule, state) to a node of steps by arriving
    weight, each (next node, total, frozen, dropped positions), so the row
    runs each step once.  Without a memo no step is stored."""
    node = {} if memo is None else memo.setdefault((place, (), False), {})
    contents, total, peak, seen_m4 = [], 0, 0, False
    for i, w in enumerate(weights):
        seen_m4 = seen_m4 or cls[i] == "M4"
        insort(contents, (w, i))  # after its equal weights
        step = node.get(w)
        if step is None:
            kept, total, frozen = (([(w, i)], w, True) if cls[i] == "L"
                                   else place(list(contents), cls, cap, seen_m4))
            if memo is None:  # store no step
                contents, step = sorted(kept), (node, total, frozen, ())
            else:
                kept = set(kept)
                drop = [j for j in range(len(contents) - 1, -1, -1) if contents[j] not in kept]
                held = tuple(e[0] for e in contents if e in kept)  # sorted, as contents are
                step = node[w] = memo.setdefault((place, held, seen_m4), {}), total, frozen, drop
        node, total, frozen, drop = step
        for j in drop:
            del contents[j]
        peak = max(peak, total)
        if frozen:
            break
    return contents, total, peak


def place_a1(q, cls, cap, seen_m4):
    """Aggressive continuation: hold at most one heavy-medium (M3/M4) item,
    the smallest of the preferred class (M4 once any M4 item has been seen,
    M3 before that), and around it retain the maximum-weight fitting subset
    of the lighter items.

    Two heavy-medium items never fit together, so the choice is which single
    one to hold; the smallest pairs best with later small items.  The slot
    stays empty when the light items alone outweigh it (forcing the keeper
    can strand it against a heavier pair), and cheaper greedy evictions lose
    the 7/5 pair bound in both directions, so the fitting subset is exact.
    """
    want = "M4" if seen_m4 else "M3"
    heavy = [e for e in q if cls[e[1]] in ("M3", "M4")]
    lights = [e for e in q if cls[e[1]] not in ("M3", "M4")]
    best_light, kept_light = max_subset_within(lights, cap)
    if heavy:
        keeper = min([e for e in heavy if cls[e[1]] == want] or heavy)
        with_k, kept_k = max_subset_within(lights, cap - keeper[0])
        if keeper[0] + with_k >= best_light:
            return [keeper, *kept_k], keeper[0] + with_k, False
    return list(kept_light), best_light, False


def place_a2(q, cls, cap, seen_m4):
    """Balanced continuation: freeze as soon as some subset of the knapsack
    plus the new item carries at least 9/10 weight (8/10 once an M4 item has
    been seen); otherwise protect the smallest M2 and M1 items, evicting
    other medium items heaviest-first and then the lightest small items."""
    threshold = 8 if seen_m4 else 9
    best_sum, best_set = max_subset_within(q, cap)
    if 10 * best_sum >= threshold * cap:
        return list(best_set), best_sum, True
    keepers = set()
    for want in ("M2", "M1"):
        cands = [e for e in q if cls[e[1]] == want]
        if cands:
            keepers.add(min(cands))
    # heaviest medium first (among equal weights the most recent arrival
    # goes), then the lightest small; no medium eviction removes a small item
    victims = sorted((e for e in q if cls[e[1]] != "S" and e not in keepers),
                     key=lambda e: (-e[0], -e[1]))
    victims += sorted((e for e in q if cls[e[1]] == "S"), key=lambda e: (e[0], -e[1]))
    total = sum(e[0] for e in q)
    for victim in victims:
        if total <= cap:
            break
        q.remove(victim)
        total -= victim[0]
    return q, total, False


def max_subset_within(entries, cap):
    """Maximum-total subset of the given (weight, arrival) entries with total
    <= cap; deterministic tie-break by search order (heaviest first).  The
    search reads weights alone: of equal weights it meets the earliest
    arrivals first, so their indices only label the subset."""
    order = sorted(entries, key=lambda e: (-e[0], e[1]))
    n = len(order)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + order[i][0]
    best_sum = 0
    best_set = ()

    def rec(i, total, chosen):
        nonlocal best_sum, best_set
        if total > cap:
            return
        if total > best_sum:
            best_sum = total
            best_set = tuple(chosen)
        if i == n or total + suffix[i] <= best_sum:
            return
        chosen.append(order[i])
        rec(i + 1, total + order[i][0], chosen)
        chosen.pop()
        rec(i + 1, total, chosen)

    rec(0, 0, [])
    return best_sum, best_set


@dataclass
class ProportionalRun(Run):
    """``one`` is A1's value and ``zero`` A2's."""

    contents: list  # the reported knapsack
    peak: int  # largest A1 or A2 knapsack total after any step


def rom_proportional(weights, cap, memo=None):
    """Greedy identical prefix, then the bit picks subroutine A1 or A2.

    Each arrival is classified once, and both subroutines run from the
    start of the sequence on those classes; during the identical prefix
    their knapsacks coincide with the greedy packing, so the returned
    knapsack always equals one full A1 or A2 run.  Without a bit all items
    are identical and both hold the same greedy packing.  ``memo`` is an
    exact row's step memo (``subroutine_run``).
    """
    bit, _ = harvest(weights)
    cls = [weight_class(w, cap) for w in weights]
    a1, one, peak1 = subroutine_run(weights, cls, cap, place_a1, memo)
    a2, zero, peak2 = subroutine_run(weights, cls, cap, place_a2, memo)
    return ProportionalRun(bit, one, zero, contents=commit(bit, a1, a2),
                           peak=max(peak1, peak2))


# ---------------------------------------------------------------------------
# proportional two-bin variant
# ---------------------------------------------------------------------------


@dataclass
class TwoBinRun(Run):
    """``one`` is bin 1's weight and ``zero`` bit 0's: bin 2's, or bin 1's on
    early exit; ``revoked`` counts what bit 0 revokes, whatever the bit."""

    early_exit: bool
    contents: list  # the reported bin
    revoked: int  # 0 on early exit or with no bit


def rom_proportional_tworbin(weights, cap):
    """Two-bin continuation: bin 1 packs greedily throughout; bit 1 keeps
    it, and bit 0 revokes its prefix and collects in bin 2 the items that
    overflow it from the switch on.  Bin 1 does not depend on the bit, so
    both bins are filled whatever the bit.

    Returns the current knapsack untouched when less than one more identical
    item would fit at the switch (the early-exit guard).
    """
    bit, switch = harvest(weights)
    bin1, w1, bin2, w2 = [], 0, [], 0
    revoked = 0
    for i, w in enumerate(weights):
        if i == switch:
            if w1 > 0 and cap - w1 < weights[0]:
                return TwoBinRun(bit, w1, w1, early_exit=True, contents=bin1, revoked=0)
            revoked = len(bin1)
        if w1 + w <= cap:
            bin1.append((w, i))
            w1 += w
        elif switch is not None and i >= switch and w2 + w <= cap:
            bin2.append((w, i))
            w2 += w
    return TwoBinRun(bit, w1, w2, early_exit=False, contents=commit(bit, bin1, bin2),
                     revoked=revoked)


# ---------------------------------------------------------------------------
# general weights: GREEDY by value density versus MAX value
# ---------------------------------------------------------------------------


def greedy_density_run(items, cap):
    """Online GREEDY with revoking: keep the densest items, evicting the
    least dense (most recent on ties) whenever the knapsack overflows.
    Returns the final packed value and contents.

    Densities v/w of positive integer weights compare by cross-multiplying,
    so no rational is built; ``contents`` stays in arrival order, so the
    last of the least dense entries is the most recent."""
    contents = []  # (w, v, arrival)
    total_w = 0
    for i, (w, v) in enumerate(items):
        contents.append((w, v, i))
        total_w += w
        while total_w > cap:
            victim = contents[0]
            for e in contents:
                if e[1] * victim[0] <= victim[1] * e[0]:
                    victim = e
            contents.remove(victim)
            total_w -= victim[0]
    return sum(e[1] for e in contents), contents


def rom_general(items, cap):
    """GREEDY on the identical prefix; the bit keeps GREEDY or switches to MAX.

    ``items`` are scaled (weight, value) integer pairs; COMBINE compares
    items by value first, then weight.  GREEDY runs once, on the full
    order, so the run is ``Run(bit, GREEDY, MAX)`` whatever the bit, and
    the audit checks GREEDY+MAX >= OPT on it without rerunning either.
    """
    bit, _ = harvest((v, w) for w, v in items)
    greedy, _ = greedy_density_run(items, cap)
    return Run(bit, greedy, max((v for _, v in items), default=0))


# ---------------------------------------------------------------------------
# offline oracle
# ---------------------------------------------------------------------------


def offline_opt_scaled(items, cap):
    """Exact optimum by branch and bound, choosing how many copies of each
    item to take rather than which copies.

    Items go by density, then by value, densest first.  The key
    v*cap*cap // w is exact with no rational built: every kept weight is at
    most ``cap``, so two distinct densities v/w differ by at least 1/cap**2
    and their keys differ.  Equal keys mean equal (weight, value) pairs, so
    the copies of one item form a run of the order.  The search takes a
    run's copies one by one, and leaving a copy out leaves out the rest of
    its run, so it branches on how many copies to take, most first.  The
    bound is the fractional (LP) one: whole items while they fit, then a
    fraction of the next.
    """
    if len(items) > OPT_GUARD:
        raise CapacityError(f"n={len(items)} exceeds oracle guard {OPT_GUARD}")
    sq = cap * cap
    order = sorted(
        (it for it in items if it[0] <= cap),
        key=lambda it: (it[1] * sq // it[0], it[1]),
        reverse=True,
    )
    n = len(order)
    skip = [n] * n  # the end of item i's run of copies
    for i in range(n - 2, -1, -1):
        skip[i] = skip[i + 1] if order[i] == order[i + 1] else i + 1
    best = 0

    def hopeless(i, room, value):
        """value + the fractional bound of items i.. <= best.  The first
        item that does not fit adds v*room/w, so that test is multiplied
        through by its weight w > 0 and stays in integers."""
        gap = value - best
        for j in range(i, n):
            w, v = order[j]
            if w > room:
                return gap * w + v * room <= 0
            room -= w
            gap += v
        return gap <= 0

    def rec(i, room, value):
        nonlocal best
        if value > best:
            best = value
        if i == n or hopeless(i, room, value):
            return
        w, v = order[i]
        if w <= room:
            rec(i + 1, room - w, value + v)
        rec(skip[i], room, value)

    rec(0, cap, 0)
    return best


# ---------------------------------------------------------------------------
# forced-revocation tail
# ---------------------------------------------------------------------------


def exact_revocation_tail(n, alpha):
    """Pr(k >= ceil(alpha*n)) given that at least one copy precedes the unique
    item: ``rom_proportional_tworbin`` revokes the k copies that precede it,
    and it is uniform over the n-1 non-leading positions."""
    if n < 2:
        raise InputError(f"the forced-revocation instance needs n >= 2, got {n}")
    a = Fraction(alpha)
    if not 0 < a <= 1:
        raise InputError("alpha must lie in (0, 1]")
    return Fraction(max(0, n - math.ceil(a * n)), n - 1)
