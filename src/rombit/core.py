"""Shared instance model: exact rationals, item keys, seeded randomness,
distinct-ordering enumeration, serialization.

Arrival orders are built in ``harness``: a problem's record in
``harness.PROBLEM_TABLE`` scales an instance to its permuted column, whose
orders ``distinct_orderings`` enumerates or ``rng_for`` samples; the audit
checks each order inside that one walk.

An ``Instance`` is columnar: one int list per payload field, all over the
instance's one common denominator, ``Instance.den``, so class boundaries
such as 3/10 and ties are decided exactly on ints; an item's key is its
key fields' entries.  Every payload value is an exact rational, an int,
Fraction or [num, den] pair.  ``make_instance`` scales a column of ints or
of [num, den > 0] int pairs, as files hold, in bulk; any other input goes
value by value through ``int_pair`` and ``common_scale``, which raise on a
bad value.  Both build no Fraction per value.  ``Instance.items`` is a view
of ``Item`` records built on first read; the package reads only columns.
Meta values stay as read.  Files hold each int as its reduced [num, den]
pair.  All stochastic operations take an explicit seed and are pure
functions of their inputs; values are safe to share across workers.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

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
    """``int_pair`` as a Fraction; an int pair goes straight to Fraction."""
    if is_int_pair(x) and x[1]:
        return Fraction(x[0], x[1])
    return Fraction(*int_pair(x))


def common_scale(nums, dens):
    """Integers over the least common denominator of the rationals
    ``nums[i] / dens[i]`` (each den > 0), so ``ints[i] / den`` equals each:
    scaled over the lcm of the dens, then reduced once by the gcd of it and
    every scaled value.  Each distinct den is divided once."""
    den = math.lcm(*(distinct := set(dens)))
    factor = {d: den // d for d in distinct}
    ints = list(map(operator.mul, nums, map(factor.__getitem__, dens)))
    g = math.gcd(den, *ints)
    return (list(map(g.__rfloordiv__, ints)), den // g) if g > 1 else (ints, den)


class Item(NamedTuple):
    """One input element of ``Instance.items``: its ordering key, the
    payload's key fields, and its payload, an int over its instance's
    ``den`` per field of its problem's ``PAYLOAD_FIELDS``.

    ``key`` holds only the coordinates that are random under the arrival
    model (the permuted payload columns), so extractor decisions never leak
    fixed information such as release positions.
    """

    key: tuple
    payload: dict


@dataclass(frozen=True)
class Instance:
    problem: str
    columns: dict  # payload field -> its ints over den in item order; never changed
    meta: dict
    den: int

    @property
    def n(self):
        return len(next(iter(self.columns.values())))

    @cached_property
    def items(self):
        """The items as ``Item`` records, built from the columns on first
        read; nothing in the package reads them."""
        fields = PAYLOAD_FIELDS[self.problem]
        cols = [self.columns[f] for f in fields]
        payloads = map(dict, map(zip, itertools.repeat(fields), zip(*cols)))
        return tuple(map(Item, zip(*cols[:2]), payloads))

    def meta_value(self, name, default=None):
        return self.meta.get(name, default)


def _scale_each(payloads, fields):
    """The payload columns of ``make_instance`` by ``int_pair`` on each
    value in item order, so the first bad value or missing field raises."""
    try:
        pairs = [int_pair(p[f]) for p in payloads for f in fields]
    except KeyError as e:
        raise InputError(f"item has no {e.args[0]!r} payload field") from None
    if not pairs:
        raise InputError("instance has no items")
    ints, den = common_scale(*zip(*pairs))
    return [ints[j::len(fields)] for j in range(len(fields))], den


def _scale_bulk(payloads, fields):
    """``_scale_each``'s columns and ``den``, checked and scaled for all
    values at once, when they are all ints or all [num, den > 0] int pairs,
    as files hold; None for any other input, which ``_scale_each`` takes or
    rejects."""
    try:
        values = list(itertools.chain.from_iterable(
            [map(operator.itemgetter(f), payloads) for f in fields]))
    except (LookupError, TypeError):
        return None
    n, kinds = len(payloads), set(map(type, values))
    if kinds == {int}:
        return [values[i:i + n] for i in range(0, len(values), n)], 1
    if kinds != {list} or set(map(len, values)) != {2}:
        return None  # also no items
    flat = list(itertools.chain.from_iterable(values))
    dens = flat[1::2]
    if set(map(type, flat)) != {int} or min(dens) <= 0:
        return None
    ints, den = common_scale(flat[::2], dens)
    return [ints[i:i + n] for i in range(0, len(ints), n)], den


def make_instance(problem, payloads, meta=None):
    """Validate and build an Instance from one payload mapping per item, each
    value an int, Fraction or [num, den] pair, stored by field as ints over
    the least common denominator ``den`` (``common_scale``); keys are the
    key fields' columns.  Raises InputError on contract violations."""
    if problem not in PAYLOAD_FIELDS:
        raise InputError(f"unknown problem {problem!r}")
    fields = PAYLOAD_FIELDS[problem]
    payloads = list(payloads)
    cols, den = _scale_bulk(payloads, fields) or _scale_each(payloads, fields)
    instance = Instance(problem, dict(zip(fields, cols)), dict(meta or {}), den)
    if problem in REALTIME_PROBLEMS:
        rel = instance.columns["release"]
        if min(rel) < 0:
            raise InputError("release must be non-negative")
        if not all(map(operator.le, rel, rel[1:])):
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
    cols = [instance.columns[f] for f in fields[:2] + tuple(sorted(fields))]
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


def _keys_copy_payloads(keys, payloads, key_fields):
    """Whether every key is its payload's key fields with no bool or float
    in it, checked for all keys at once; False also when the coordinates
    mix ints and pairs, which the per-item check then decides."""
    if set(map(len, keys)) != {len(key_fields)}:
        return False
    coords = list(itertools.chain.from_iterable(keys))
    kinds = set(map(type, coords))
    if kinds == {list}:
        kinds = set(map(type, itertools.chain.from_iterable(coords)))
    copies = zip(*[map(operator.itemgetter(f), payloads) for f in key_fields])
    return kinds == {int} and coords == list(itertools.chain.from_iterable(copies))


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
    keys = None  # checked for all items at once; the loop names the first bad one
    if set(map(type, items)) <= {dict}:
        keys = list(map(dict.get, items, itertools.repeat("key")))
    if keys is None or not set(map(type, keys)) <= {list}:
        for i, rec in enumerate(items):
            if not isinstance(_json_object(rec, f"item {i}", line).get("key"), list):
                raise ParseError(f"item {i} key must be a JSON array", line=line)
    try:
        payloads = list(map(dict.get, items, itertools.repeat("payload")))
        if not set(map(type, payloads)) <= {dict}:
            payloads = [_json_object(rec.get("payload", {}), "payload", line)
                        for rec in items]
        meta = {
            k: _decode_weight_table(v) if k == "weight_table" else _decode_meta_value(v)
            for k, v in _json_object(obj.get("meta", {}), "meta", line).items()
        }
        instance = make_instance(problem, payloads, meta)
        key_fields = PAYLOAD_FIELDS[problem][:2]
        if _keys_copy_payloads(keys, payloads, key_fields):
            return instance
        columns = zip(*(instance.columns[f] for f in key_fields))
        for i, (key, payload, ints) in enumerate(zip(keys, payloads, columns)):
            # each payload value parsed as an int or an int pair, so a key
            # equal to the payload's key fields with no bool or float in it
            # is the same JSON and parses to the same key
            if key == [payload[f] for f in key_fields] and all(
                type(c) is int or is_int_pair(c) for c in key
            ):
                continue
            key = tuple(to_fraction(c) for c in key)
            want = tuple(Fraction(c, instance.den) for c in ints)
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
