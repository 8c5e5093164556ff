"""De-randomized online knapsack with revoking.

Three ROM algorithms share the same skeleton: pack identical items greedily,
take the COMBINE bit at the first distinct item from ``extraction.harvest``,
then commit to one of two deterministic continuations.

* proportional, two subroutines (aggressive / balanced) chosen by the bit;
* proportional, two-bin variant with an early-exit guard;
* general weights, GREEDY-by-density versus MAX-value.

Unit capacity throughout.  Weights and values enter as exact rationals and
are rescaled once per instance to integers (capacity becomes ``cap``), so
class boundaries such as 3/10 are decided by integer cross-multiplication
and the exhaustive permutation audits run on plain ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import CapacityError, InputError, common_scale, rng_for
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


def scale_weights(weights):
    """Rescale rational weights in (0,1] to integers with a common capacity."""
    fracs = [Fraction(w) for w in weights]
    if any(not 0 < w <= 1 for w in fracs):
        raise InputError("weights must lie in (0, 1]")
    return common_scale(fracs)


def scale_values(values):
    fracs = [Fraction(v) for v in values]
    if any(v <= 0 for v in fracs):
        raise InputError("values must be positive")
    return common_scale(fracs)


# ---------------------------------------------------------------------------
# proportional subroutines (aggressive A1, balanced A2)
# ---------------------------------------------------------------------------


class _Subroutine:
    """What A1 and A2 share: a large arrival evicts everything else and
    completes (freezes) the packing, an M4 arrival is remembered, and any
    other arrival goes with the current contents to the subclass's
    ``_place``, which sets the new contents.  ``total``, the contents'
    weight, is set with them."""

    def __init__(self, cap):
        self.cap = cap
        self.contents = []  # (weight, arrival_index)
        self.total = 0
        self.seen_m4 = False
        self.frozen = False

    def _set(self, contents, total):
        self.contents = contents
        self.total = total

    def feed(self, w, arr):
        if self.frozen:
            return
        cls = weight_class(w, self.cap)
        if cls == "L":
            self._set([(w, arr)], w)
            self.frozen = True
            return
        if cls == "M4":
            self.seen_m4 = True
        self._place(self.contents + [(w, arr)])


class SubroutineA1(_Subroutine):
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

    def _place(self, q):
        want = "M4" if self.seen_m4 else "M3"
        candidates = [e for e in q if weight_class(e[0], self.cap) == want]
        if not candidates:
            candidates = [
                e for e in q if weight_class(e[0], self.cap) in ("M3", "M4")
            ]
        keeper = min(candidates) if candidates else None
        lights = [
            e for e in q if weight_class(e[0], self.cap) not in ("M3", "M4")
        ]
        best_light, kept_light = max_subset_within(lights, self.cap)
        if keeper is not None:
            with_k, kept_k = max_subset_within(lights, self.cap - keeper[0])
            if keeper[0] + with_k >= best_light:
                self._set([keeper] + list(kept_k), keeper[0] + with_k)
                return
        self._set(list(kept_light), best_light)


class SubroutineA2(_Subroutine):
    """Balanced continuation: freeze as soon as some subset of the knapsack
    plus the new item carries at least 9/10 weight (8/10 once an M4 item has
    been seen); otherwise protect the smallest M2 and M1 items, evicting
    other medium items heaviest-first and then the lightest small items."""

    def _place(self, q):
        threshold = 8 if self.seen_m4 else 9
        best_sum, best_set = max_subset_within(q, self.cap)
        if 10 * best_sum >= threshold * self.cap:
            self._set(list(best_set), best_sum)
            self.frozen = True
            return
        keepers = set()
        for want in ("M2", "M1"):
            cands = [e for e in q if weight_class(e[0], self.cap) == want]
            if cands:
                keepers.add(min(cands))
        total = sum(e[0] for e in q)
        mediums = [
            e
            for e in q
            if weight_class(e[0], self.cap).startswith("M") and e not in keepers
        ]
        # heaviest first; among equal weights the most recent arrival goes
        for victim in sorted(mediums, key=lambda e: (-e[0], -e[1])):
            if total <= self.cap:
                break
            q.remove(victim)
            total -= victim[0]
        smalls = [e for e in q if weight_class(e[0], self.cap) == "S"]
        for victim in sorted(smalls, key=lambda e: (e[0], -e[1])):
            if total <= self.cap:
                break
            q.remove(victim)
            total -= victim[0]
        self._set(q, total)


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

    Both subroutines are simulated from the start of the sequence; during
    the identical prefix their knapsacks coincide with the greedy packing,
    so the returned knapsack always equals one full A1 or A2 run.
    """
    bit, _ = harvest((w,) for w in weights)
    a1 = SubroutineA1(cap)
    a2 = SubroutineA2(cap)
    peak = 0
    for i, w in enumerate(weights):
        a1.feed(w, i)
        a2.feed(w, i)
        peak = max(peak, a1.total, a2.total)
    # without a bit all items are identical and both subroutines hold the
    # same greedy packing
    side = a2 if bit == 0 else a1
    return ProportionalRun(
        bit=bit,
        contents=list(side.contents),
        value=side.total,
        a1_value=a1.total,
        a2_value=a2.total,
        peak=peak,
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
    """Two-bin continuation: bit 1 keeps filling the current knapsack (bin 1),
    bit 0 revokes everything and collects the items that overflow bin 1.

    Returns the current knapsack untouched when less than one more identical
    item would fit (the early-exit guard).
    """
    bit, switch = harvest((w,) for w in weights)
    packed = []
    total = 0
    for i, w in enumerate(weights[:switch]):
        if total + w <= cap:
            packed.append((w, i))
            total += w
    if bit is None:
        return TwoBinRun(
            bit=None, early_exit=False, contents=packed, value=total,
            revocations=0,
        )
    if force_bit is not None:
        bit = force_bit
    if total > 0 and cap - total < weights[0]:
        return TwoBinRun(
            bit=bit, early_exit=True, contents=packed, value=total,
            revocations=0,
        )
    # bin 1 keeps filling greedily; on bit 0 the overflow goes to bin 2
    bin1, w1 = list(packed), total
    bin2, w2 = [], 0
    for j in range(switch, len(weights)):
        w = weights[j]
        if w1 + w <= cap:
            bin1.append((w, j))
            w1 += w
        elif bit == 0 and w2 + w <= cap:
            bin2.append((w, j))
            w2 += w
    if bit == 1:
        return TwoBinRun(
            bit=1, early_exit=False, contents=bin1, value=w1,
            revocations=0,
        )
    # bit 0 revokes the greedy prefix
    return TwoBinRun(
        bit=0, early_exit=False, contents=bin2, value=w2,
        revocations=len(packed),
    )


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
    """Exact optimum by depth-first subset search with a fractional bound."""
    if len(items) > OPT_GUARD:
        raise CapacityError(f"n={len(items)} exceeds oracle guard {OPT_GUARD}")
    order = sorted(
        (it for it in items if it[0] <= cap),
        key=lambda it: (Fraction(it[1], it[0]), it[1]),
        reverse=True,
    )
    n = len(order)
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
        rec(i + 1, room, value)

    rec(0, cap, 0)
    return best


# ---------------------------------------------------------------------------
# forced-revocation experiment
# ---------------------------------------------------------------------------


def exact_revocation_tail(n, alpha):
    """Pr(k >= ceil(alpha*n)) given that at least one copy precedes the unique
    item: the unique item is uniform over the n-1 non-leading positions."""
    a = Fraction(alpha)
    if not 0 < a <= 1:
        raise InputError("alpha must lie in (0, 1]")
    m = math.ceil(a * n)
    if m < 1:
        return Fraction(1)
    return Fraction(max(0, n - m), n - 1)


def revocation_experiment(n, epsilon, alpha, trials, seed):
    """Empirical Pr(k >= ceil(alpha*n)) for the forced-revocation instance.

    The instance is n-1 copies of weight epsilon/n plus one unit item.  On
    the bit-0 branch every copy that precedes the unique item is packed and
    then revoked (for epsilon <= 1 the early exit can never trigger), so k
    is the unique item's position minus one.
    """
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
    """Scaled weights for the adversarial instance: n-1 copies of eps/n plus
    one unit item (unit item last in label order)."""
    eps = Fraction(epsilon)
    ws, cap = scale_weights([eps / n] * (n - 1) + [Fraction(1)])
    return ws, cap
