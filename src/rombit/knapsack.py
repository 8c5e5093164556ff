"""De-randomized online knapsack with revoking.

Three ROM algorithms share the same skeleton: pack identical items greedily,
take the COMBINE bit at the first distinct item from ``extraction.harvest``,
then commit to one of two deterministic continuations.

* proportional, two subroutines (aggressive / balanced) chosen by the bit;
* proportional, two-bin variant with an early-exit guard;
* general weights, GREEDY-by-density versus MAX-value.

The proportional algorithms run on an order's weight column.  A1 and A2 are
one subroutine loop, ``subroutine_run``, with two placement rules,
``place_a1`` and ``place_a2``; each arrival's weight class is computed once
per order into a class column that both read by arrival index.

Unit capacity throughout.  Weights and values arrive as ints over their
instance's common denominator (``core.make_instance``), which is the
capacity ``cap``, so class boundaries such as 3/10 are decided by integer
cross-multiplication and the exhaustive permutation audits run on plain
ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import CapacityError, InputError, rng_for
from .extraction import harvest

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


def subroutine_run(weights, cls, cap, place):
    """A1 or A2 on the order's weights and classes: a large arrival evicts
    everything else and completes the packing, an M4 arrival is remembered,
    and any other arrival goes with the contents, (weight, arrival) entries,
    to ``place``, which returns (contents, total, complete).  Returns the
    final contents and total, and the largest total after any step."""
    contents, total, peak = [], 0, 0
    seen_m4 = False
    for i, w in enumerate(weights):
        if cls[i] == "L":
            return [(w, i)], w, max(peak, w)
        if cls[i] == "M4":
            seen_m4 = True
        contents, total, frozen = place(contents + [(w, i)], cls, cap, seen_m4)
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
    <= cap; deterministic tie-break by search order (heaviest first)."""
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
class ProportionalRun:
    bit: int
    contents: list
    value: int
    a1_value: int
    a2_value: int
    peak: int  # largest A1 or A2 knapsack total after any step


def rom_proportional(weights, cap):
    """Greedy identical prefix, then the bit picks subroutine A1 or A2.

    Each arrival is classified once, and both subroutines run from the
    start of the sequence on those classes; during the identical prefix
    their knapsacks coincide with the greedy packing, so the returned
    knapsack always equals one full A1 or A2 run.
    """
    bit, _ = harvest(weights)
    cls = [weight_class(w, cap) for w in weights]
    a1, a1_value, a1_peak = subroutine_run(weights, cls, cap, place_a1)
    a2, a2_value, a2_peak = subroutine_run(weights, cls, cap, place_a2)
    # without a bit all items are identical and both subroutines hold the
    # same greedy packing
    contents, value = (a2, a2_value) if bit == 0 else (a1, a1_value)
    return ProportionalRun(
        bit=bit,
        contents=contents,
        value=value,
        a1_value=a1_value,
        a2_value=a2_value,
        peak=max(a1_peak, a2_peak),
    )


# ---------------------------------------------------------------------------
# proportional two-bin variant
# ---------------------------------------------------------------------------


@dataclass
class TwoBinRun:
    bit: int
    early_exit: bool
    contents: list
    value: int
    revocations: int


def rom_proportional_tworbin(weights, cap, force_bit=None):
    """Two-bin continuation: bin 1 packs greedily throughout; bit 1 keeps
    it, and bit 0 revokes its prefix and collects in bin 2 the items that
    overflow it from the switch on.

    Returns the current knapsack untouched when less than one more identical
    item would fit at the switch (the early-exit guard).
    """
    bit, switch = harvest(weights)
    if bit is not None and force_bit is not None:
        bit = force_bit
    bin1, w1, bin2, w2 = [], 0, [], 0
    early_exit = False
    for i, w in enumerate(weights):
        if i == switch:
            if w1 > 0 and cap - w1 < weights[0]:
                early_exit = True
                break
            prefix = len(bin1)  # what bit 0 revokes
        if w1 + w <= cap:
            bin1.append((w, i))
            w1 += w
        elif bit == 0 and i >= switch and w2 + w <= cap:
            bin2.append((w, i))
            w2 += w
    if bit == 0 and not early_exit:
        return TwoBinRun(bit=0, early_exit=False, contents=bin2, value=w2,
                         revocations=prefix)
    return TwoBinRun(bit=bit, early_exit=early_exit, contents=bin1, value=w1,
                     revocations=0)


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


@dataclass
class GeneralRun:
    bit: int
    greedy_value: int  # GREEDY on the full order, whatever the bit
    max_value: int
    value: int


def rom_general(items, cap):
    """GREEDY on the identical prefix; the bit keeps GREEDY or switches to MAX.

    ``items`` are scaled (weight, value) integer pairs; COMBINE compares
    items by value first, then weight.  GREEDY runs once, on the full
    order, and ``greedy_value`` records its value whatever the bit, so the
    audit checks GREEDY+MAX >= OPT on this run without rerunning it.
    """
    bit, _ = harvest((v, w) for w, v in items)
    greedy_value, _ = greedy_density_run(items, cap)
    max_value = max((v for _, v in items), default=0)
    return GeneralRun(
        bit=bit,
        greedy_value=greedy_value,
        max_value=max_value,
        value=max_value if bit == 0 else greedy_value,
    )


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
# forced-revocation experiment
# ---------------------------------------------------------------------------


def _check_size(n):
    """The instance is n-1 copies plus one unit item, so it needs n >= 2."""
    if n < 2:
        raise InputError(f"the forced-revocation instance needs n >= 2, got {n}")


def exact_revocation_tail(n, alpha):
    """Pr(k >= ceil(alpha*n)) given that at least one copy precedes the unique
    item: the unique item is uniform over the n-1 non-leading positions."""
    _check_size(n)
    a = Fraction(alpha)
    if not 0 < a <= 1:
        raise InputError("alpha must lie in (0, 1]")
    return Fraction(max(0, n - math.ceil(a * n)), n - 1)


def revocation_experiment(n, epsilon, alpha, trials, seed):
    """Empirical Pr(k >= ceil(alpha*n)) for the forced-revocation instance,
    estimated without running the algorithm.

    The instance is n-1 copies of weight epsilon/n plus one unit item.  On
    the bit-0 branch every copy that precedes the unique item is packed and
    then revoked (for epsilon <= 1 the early exit can never trigger), so the
    revocation count k is the unique item's 1-based position minus one;
    ``test_revocation_counts_match_algorithm`` checks this against
    ``rom_proportional_tworbin`` at n = 10.  Each trial draws only that
    position, uniform over the n slots, so ``epsilon`` is validated but
    does not enter the estimate.  Running the algorithm on seeded orders is
    ROADMAP item 8.
    """
    _check_size(n)
    if trials < 1:
        raise InputError("trials must be >= 1")
    eps = Fraction(epsilon)
    if not 0 < eps <= 1:
        raise InputError("epsilon must lie in (0, 1]")
    a = Fraction(alpha)
    if not 0 < a <= 1:
        raise InputError("alpha must lie in (0, 1]")
    m = math.ceil(a * n)
    hits = 0
    for t in range(trials):
        pos = rng_for(seed, t).randrange(n)  # 0-based position of the unique item
        if pos >= m:
            hits += 1
    p = hits / trials
    return {
        "n": n,
        "alpha": a,
        "threshold": m,
        "estimate": p,
        "stderr": math.sqrt(p * (1 - p) / trials),
        "bound": 1 - float(a) - 1 / n,
        "trials": trials,
        "seed": seed,
    }


def forced_revocation_weights(n, epsilon):
    """Scaled weights and capacity of the adversarial instance: n-1 copies of
    eps/n plus one unit item (unit item last in label order)."""
    _check_size(n)
    w = Fraction(epsilon) / n
    if not 0 < w <= 1:
        raise InputError("weights must lie in (0, 1]")
    return [w.numerator] * (n - 1) + [w.denominator], w.denominator
