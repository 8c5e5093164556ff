"""Shared instance model: exact rationals, item keys, seeded randomness,
distinct-ordering enumeration, serialization.

Arrival orders are built in ``harness`` (``_order_domain``), which
enumerates them with ``distinct_orderings`` or samples them with
``rng_for``; the audit checks each order inside that one walk.

Every quantity that enters a comparison or an eviction rule is an exact
rational (``fractions.Fraction``), so class boundaries and ties are
unambiguous.  All stochastic operations take an explicit seed and are pure
functions of their inputs; values are safe to share across workers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

PROBLEMS = (
    "string_guess",
    "knapsack_general",
    "knapsack_proportional",
    "interval",
    "throughput",
)

# problems whose items carry a release coordinate that stays sorted in place
REALTIME_PROBLEMS = ("interval", "throughput")

ENUMERATION_GUARD = 10


class InputError(ValueError):
    """Malformed or inconsistent input (dimension mismatch, bad model, ...)."""


class CapacityError(ValueError):
    """Instance too large for an exhaustive operation."""


class StateError(RuntimeError):
    """Operation applied to an object in the wrong state (e.g. feed after emit)."""


class ParseError(ValueError):
    """Instance/report file could not be parsed; carries the offending line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def to_fraction(x):
    """Coerce ints, Fractions and [num, den] pairs to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (list, tuple)) and len(x) == 2 and all(isinstance(v, int) for v in x):
        return Fraction(x[0], x[1])
    raise InputError(f"not a rational: {x!r}")


def lex_compare(a, b):
    """Total lexicographic order on equal-dimension coordinate tuples.

    Returns -1, 0 or +1.  Keys compare equal only when coordinate-wise
    identical; otherwise the first differing coordinate decides.
    """
    if len(a) != len(b):
        raise InputError(f"key dimension mismatch: {len(a)} vs {len(b)}")
    for x, y in zip(a, b):
        if x < y:
            return -1
        if x > y:
            return 1
    return 0


@dataclass(frozen=True)
class Item:
    """One input element: ordering key plus application payload.

    ``key`` holds only the coordinates that are random under the arrival
    model (the permuted payload columns), so extractor decisions never leak
    fixed information such as release positions.
    """

    key: tuple
    payload: tuple = ()  # sorted (name, Fraction) pairs

    def field_(self, name):
        for k, v in self.payload:
            if k == name:
                return v
        raise KeyError(name)

    def has_field(self, name):
        return any(k == name for k, _ in self.payload)


def make_item(key, payload=None):
    key = tuple(to_fraction(c) for c in key)
    pairs = tuple(sorted((str(k), to_fraction(v)) for k, v in (payload or {}).items()))
    return Item(key=key, payload=pairs)


@dataclass(frozen=True)
class Instance:
    problem: str
    items: tuple  # tuple[Item, ...]
    meta: tuple = ()  # sorted (name, value) pairs

    @property
    def n(self):
        return len(self.items)

    def meta_value(self, name, default=None):
        for k, v in self.meta:
            if k == name:
                return v
        return default

    def releases(self):
        return [it.field_("release") for it in self.items]


def make_instance(problem, items, meta=None):
    """Validate and build an Instance; raises InputError on contract violations."""
    if problem not in PROBLEMS:
        raise InputError(f"unknown problem {problem!r}")
    items = tuple(items)
    if not items:
        raise InputError("instance has no items")
    dim = len(items[0].key)
    for it in items:
        if len(it.key) != dim:
            raise InputError("key dimension varies within instance")
    if problem in REALTIME_PROBLEMS:
        rel = []
        for it in items:
            if not it.has_field("release"):
                raise InputError(f"{problem} item lacks a release coordinate")
            r = it.field_("release")
            if r < 0:
                raise InputError("release must be non-negative")
            rel.append(r)
        if any(rel[i] > rel[i + 1] for i in range(len(rel) - 1)):
            raise InputError("releases must be non-decreasing in item order")
    meta_pairs = tuple(sorted((meta or {}).items())) if not isinstance(meta, tuple) else meta
    return Instance(problem=problem, items=items, meta=meta_pairs)


# deterministic seed splitting (splitmix64 finalizer)
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split_seed(seed, *indices):
    """Derive an independent child seed; stable across runs and platforms."""
    z = _mix64(seed & _MASK64)
    for ix in indices:
        z = _mix64(z ^ _mix64(ix & _MASK64))
    return z


def rng_for(seed, *indices):
    return random.Random(split_seed(seed, *indices))


class CounterStream:
    """splitmix64 counter stream keyed by ``split_seed(seed, *indices)``.

    Draw k = 1, 2, ... is the splitmix64 finalizer of key + k*gamma, i.e.
    ``_mix64`` of the state, which then advances by gamma (Steele, Lea and
    Flood, OOPSLA 2014).  Creating one costs a few integer mixes, where a
    ``random.Random`` seeds a whole Mersenne Twister, so a stream per trial
    is cheap and the trial's outcome depends only on its indices.
    """

    __slots__ = ("state",)

    def __init__(self, seed, *indices):
        self.state = split_seed(seed, *indices)

    def below(self, bound):
        """Uniform int on [0, bound) for 1 <= bound <= 2**64.

        Lemire's multiply-shift (ACM TOMACS 2019): the high word of x*bound,
        with draws whose low word falls under 2**64 mod bound rejected, so
        every value has exactly the same number of preimages.
        """
        if not 0 < bound <= _MASK64 + 1:
            raise InputError(f"bound must lie in [1, 2**64], got {bound}")
        m = _mix64(self.state) * bound
        self.state = (self.state + _GAMMA) & _MASK64
        if m & _MASK64 < bound:
            threshold = (_MASK64 + 1 - bound) % bound
            while m & _MASK64 < threshold:
                m = _mix64(self.state) * bound
                self.state = (self.state + _GAMMA) & _MASK64
        return m >> 64


def distinct_orderings(values):
    """Distinct orderings of a value multiset, each yielded once.

    Every distinct ordering corresponds to the same number of label
    permutations (the product of the multiplicity factorials), so a uniform
    average over these orderings equals the average over all n! labeled
    permutations.
    """
    pool = sorted(values)

    def rec(prefix, remaining):
        if not remaining:
            yield tuple(prefix)
            return
        last = object()
        for i, v in enumerate(remaining):
            if v == last:
                continue
            last = v
            yield from rec(prefix + [v], remaining[:i] + remaining[i + 1 :])

    return rec([], pool)


# ---------------------------------------------------------------------------
# serialization: JSON lines, rationals as [num, den] integer pairs
# ---------------------------------------------------------------------------


def _encode_value(v):
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        return v
    if isinstance(v, (list, tuple)):
        return [_encode_value(x) for x in v]
    raise InputError(f"cannot encode {v!r}")


def _decode_meta_value(v):
    if isinstance(v, str):
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, list):
        if len(v) == 2 and all(isinstance(x, int) for x in v):
            return Fraction(v[0], v[1])
        return [_decode_meta_value(x) for x in v]
    raise InputError(f"cannot decode meta value {v!r}")


def instance_to_json(instance):
    obj = {
        "problem": instance.problem,
        "meta": {k: _encode_value(v) for k, v in instance.meta},
        "items": [
            {
                "key": [_encode_value(c) for c in it.key],
                "payload": {k: _encode_value(v) for k, v in it.payload},
            }
            for it in instance.items
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_from_json(text, line=None):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=line) from None
    problem = obj.get("problem")
    if problem not in PROBLEMS:
        raise ParseError(f"unknown problem tag {problem!r}", line=line)
    try:
        items = [
            make_item(
                [to_fraction(c) for c in rec["key"]],
                {k: to_fraction(v) for k, v in rec.get("payload", {}).items()},
            )
            for rec in obj["items"]
        ]
        meta = {k: _decode_meta_value(v) for k, v in obj.get("meta", {}).items()}
        return make_instance(problem, items, meta)
    except (KeyError, TypeError, InputError) as e:
        raise ParseError(str(e), line=line) from None


def read_instances(path):
    """Read a JSON-lines instance file; empty file yields an empty list."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            out.append(instance_from_json(raw, line=lineno))
    return out


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
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
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
            enc = {}
            for k, v in row.items():
                if isinstance(v, Fraction):
                    enc[k] = [v.numerator, v.denominator]
                else:
                    enc[k] = v
            lines.append(json.dumps(enc, sort_keys=True))
        text = "\n".join(lines) + "\n" if lines else ""
    else:
        raise InputError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
