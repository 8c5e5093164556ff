"""Shared instance model: exact rationals, item keys, seeded randomness,
distinct-ordering enumeration, serialization.

Arrival orders are built in ``harness``: a problem's record in
``harness.PROBLEM_TABLE`` scales an instance to its permuted column, whose
orders ``distinct_orderings`` enumerates or ``rng_for`` samples; the audit
checks each order inside that one walk.

Every payload value is an exact rational, an int, Fraction or [num, den]
pair, that ``make_instance`` takes as an int pair and scales once
(``common_scale``) to an int over the instance's one common denominator,
``Instance.den``, building no Fraction per value, so class boundaries such
as 3/10 and ties are decided exactly on ints; meta values stay as read.
Files hold each int as its reduced [num, den] pair.  All stochastic
operations take an explicit seed and are pure functions of their inputs;
values are safe to share across workers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

# every problem's item payload fields; the first two (the one for
# string_guess) are the item's key, the coordinates the arrival order permutes
PAYLOAD_FIELDS = {
    "string_guess": ("bit",),
    "knapsack_general": ("value", "weight"),
    "knapsack_proportional": ("value", "weight"),
    "interval": ("weight", "length", "release"),
    "throughput": ("proc", "slack", "release"),
}
PROBLEMS = tuple(PAYLOAD_FIELDS)

# problems whose items carry a release coordinate that stays sorted in place
REALTIME_PROBLEMS = ("interval", "throughput")


class InputError(ValueError):
    """Malformed or inconsistent input (dimension mismatch, bad model, ...)."""


class CapacityError(ValueError):
    """Instance too large for an exhaustive operation."""


class ParseError(ValueError):
    """Instance/report file could not be parsed; the message names the line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def is_int_pair(x):
    """Whether ``x`` is a JSON ``[num, den]`` list of two ints (no bools)."""
    return type(x) is list and len(x) == 2 and type(x[0]) is int and type(x[1]) is int


def int_pair(x):
    """An int (not a bool), Fraction or [num, den] int pair as ``(num, den >
    0)``, unreduced, with no Fraction built.  Exact type checks come first,
    so an int pair or an int never reaches the ABC ``isinstance`` hook."""
    if type(x) is int:
        return x, 1
    if is_int_pair(x) and x[1]:
        return (x[0], x[1]) if x[1] > 0 else (-x[0], -x[1])
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise InputError(f"not a rational: {x!r}")


def to_fraction(x):
    """``int_pair`` as a Fraction."""
    return Fraction(*int_pair(x))


def common_scale(pairs):
    """Integers over the least common denominator of ``(num, den > 0)``
    pairs, so ``ints[i] / den == num_i / den_i``: scaled over the lcm of the
    dens, then reduced once by the gcd of it and every scaled value."""
    # unpack a list, not a generator, whose grown tuple would sit in a free list
    den = math.lcm(*[d for _, d in pairs])
    ints = [x * (den // d) for x, d in pairs]
    g = math.gcd(den, *ints)
    return ([x // g for x in ints], den // g) if g > 1 else (ints, den)


@dataclass(frozen=True)
class Item:
    """One input element: its payload, an int over its instance's ``den``
    per field of its problem's ``PAYLOAD_FIELDS``, and its ordering key, the
    payload's key fields.

    ``key`` holds only the coordinates that are random under the arrival
    model (the permuted payload columns), so extractor decisions never leak
    fixed information such as release positions.
    """

    key: tuple
    payload: dict


@dataclass(frozen=True)
class Instance:
    problem: str
    items: tuple  # tuple[Item, ...]
    meta: dict
    den: int  # every payload and key value is an int over den

    @property
    def n(self):
        return len(self.items)

    def column(self, name):
        """Payload field ``name`` of every item, in item order, as ints
        over ``den``."""
        return [it.payload[name] for it in self.items]

    def meta_value(self, name, default=None):
        return self.meta.get(name, default)


def make_instance(problem, payloads, meta=None):
    """Validate and build an Instance from one payload mapping per item, each
    value an int, Fraction or [num, den] pair, taken as an ``int_pair`` and
    stored as an int over ``den`` (``common_scale``), each key derived from
    its payload; raises InputError on contract violations."""
    if problem not in PAYLOAD_FIELDS:
        raise InputError(f"unknown problem {problem!r}")
    fields = PAYLOAD_FIELDS[problem]
    try:
        pairs = [int_pair(p[f]) for p in payloads for f in fields]
    except KeyError as e:
        raise InputError(f"item has no {e.args[0]!r} payload field") from None
    if not pairs:
        raise InputError("instance has no items")
    ints, den = common_scale(pairs)
    k, keys = len(fields), len(fields[:2])
    # a tuple of a list, not of a generator, whose grown tuple would sit in
    # a free list
    items = tuple([Item(row[:keys], dict(zip(fields, row)))
                   for row in zip(*[ints[j::k] for j in range(k)])])
    instance = Instance(problem, items, dict(meta or {}), den)
    if problem in REALTIME_PROBLEMS:
        rel = instance.column("release")
        if min(rel) < 0:
            raise InputError("release must be non-negative")
        if any(a > b for a, b in zip(rel, rel[1:])):
            raise InputError("releases must be non-decreasing in item order")
    return instance


# deterministic seed splitting (splitmix64 finalizer)
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split_seed(seed, *indices):
    """Derive an independent child seed; stable across runs and platforms.
    ``extraction._split_lanes`` computes ``split_seed(seed, t)`` on packed
    lanes: change both; the lane and CounterStream tests catch a mismatch."""
    z = _mix64(seed & _MASK64)
    for ix in indices:
        z = _mix64(z ^ _mix64(ix & _MASK64))
    return z


def rng_for(seed, *indices):
    return random.Random(split_seed(seed, *indices))


def distinct_orderings(values):
    """Distinct orderings of a value multiset, each yielded once, in
    lexicographic order: next-permutation steps over the sorted values.

    Every distinct ordering corresponds to the same number of label
    permutations (the product of the multiplicity factorials), so a uniform
    average over these orderings equals the average over all n! labeled
    permutations.
    """
    a = sorted(values)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


# ---------------------------------------------------------------------------
# serialization: JSON lines, rationals as [num, den] integer pairs
# ---------------------------------------------------------------------------


def _encode_value(v):
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    if isinstance(v, (int, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [_encode_value(x) for x in v]
    raise InputError(f"cannot encode {v!r}")


def _decode_meta_value(v):
    if isinstance(v, (str, int)):
        return v
    if isinstance(v, list):
        if len(v) == 2 and all(isinstance(x, int) for x in v):
            return to_fraction(v)
        return [_decode_meta_value(x) for x in v]
    raise InputError(f"cannot decode meta value {v!r}")


def _decode_weight_table(v):
    """A C-benevolent ``weight_table``: a list of [length, weight] pairs,
    each side an int or a [num, den] rational."""
    try:
        if isinstance(v, list) and all(isinstance(p, list) for p in v):
            return [[to_fraction(length), to_fraction(weight)] for length, weight in v]
    except ValueError:  # a pair of the wrong size, or a side that is no rational
        pass
    raise InputError(
        f"weight_table must be a list of [length, weight] pairs of ints or "
        f"[num, den] rationals, got {v!r}"
    )


def instance_to_json(instance):
    """One JSON line, the bytes of ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` over nested item dicts, formatted without them:
    each key and payload value, an int over ``den``, is written as its
    reduced [num, den] pair, formatted once per distinct value."""
    den, fields = instance.den, PAYLOAD_FIELDS[instance.problem]
    # the key fields, then the payload fields in sorted order
    cols = [instance.column(f) for f in fields[:2] + tuple(sorted(fields))]
    text = {x: f"[{x // (g := math.gcd(x, den))},{den // g}]" for x in set().union(*cols)}
    item = ('{"key":[' + ",".join(["%s"] * len(fields[:2])) + '],"payload":{'
            + ",".join(f'"{f}":%s' for f in sorted(fields)) + "}}")
    items = ",".join(map(item.__mod__, zip(*[map(text.__getitem__, c) for c in cols])))
    meta = json.dumps({k: _encode_value(v) for k, v in instance.meta.items()},
                      sort_keys=True, separators=(",", ":"))
    return f'{{"items":[{items}],"meta":{meta},"problem":"{instance.problem}"}}'


def _json_object(value, what, line):
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object", line=line)
    return value


def instance_from_json(text, line=None):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=line) from None
    problem = _json_object(obj, "an instance line", line).get("problem")
    if problem not in PROBLEMS:
        raise ParseError(f"unknown problem tag {problem!r}", line=line)
    items = obj.get("items")
    if not isinstance(items, list):
        raise ParseError("items must be a JSON array", line=line)
    for i, rec in enumerate(items):
        if not isinstance(_json_object(rec, f"item {i}", line).get("key"), list):
            raise ParseError(f"item {i} key must be a JSON array", line=line)
    try:
        keys = [rec["key"] for rec in items]
        payloads = [_json_object(rec.get("payload", {}), "payload", line) for rec in items]
        meta = {
            k: _decode_weight_table(v) if k == "weight_table" else _decode_meta_value(v)
            for k, v in _json_object(obj.get("meta", {}), "meta", line).items()
        }
        instance = make_instance(problem, payloads, meta)
        key_fields = PAYLOAD_FIELDS[problem][:2]
        for i, (key, payload, it) in enumerate(zip(keys, payloads, instance.items)):
            # each payload value parsed as an int or an int pair, so a key
            # equal to the payload's key fields with no bool or float in it
            # is the same JSON and parses to the same key
            if key == [payload[f] for f in key_fields] and all(
                type(c) is int or is_int_pair(c) for c in key
            ):
                continue
            key = tuple(to_fraction(c) for c in key)
            want = tuple(Fraction(c, instance.den) for c in it.key)
            if key != want:
                raise InputError(f"item {i} key {_encode_value(key)} is not its "
                                 f"payload's key {_encode_value(want)}")
        return instance
    except (KeyError, TypeError, InputError) as e:
        raise ParseError(str(e), line=line) from None


def read_instances(path):
    """Read a JSON-lines instance file; empty file yields an empty list."""
    with open(path, "r", encoding="utf-8") as fh:
        return [instance_from_json(raw.strip(), line=lineno)
                for lineno, raw in enumerate(fh, start=1) if raw.strip()]


def write_instances(instances, path):
    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(instance_to_json(inst) + "\n")


REPORT_COLUMNS = (
    "instance_id",
    "problem",
    "model",
    "trials",
    "seed",
    "mean_alg",
    "opt",
    "empirical_ratio",
    "stderr",
)


def format_number(v):
    if v is None:
        return ""
    if isinstance(v, Fraction):
        # Decimal prints ints past str's 4,300-digit cap (n = 1e5 exact bias)
        return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}".removesuffix("/1")
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_report(rows, path, fmt="csv"):
    """Write per-instance report rows as CSV (fixed columns) or JSON lines."""
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        for row in rows:
            lines.append(",".join(format_number(row.get(c)) for c in REPORT_COLUMNS))
        text = "\n".join(lines) + "\n"
    elif fmt == "jsonl":
        lines = []
        for row in rows:
            enc = {k: [v.numerator, v.denominator] if isinstance(v, Fraction) else v
                   for k, v in row.items()}
            lines.append(json.dumps(enc, sort_keys=True))
        text = "\n".join(lines) + "\n" if lines else ""
    else:
        raise InputError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
