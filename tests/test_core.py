"""Instance model, the harness arrival model, ordering enumeration, serialization."""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rombit.core import (
    PAYLOAD_FIELDS,
    InputError,
    ParseError,
    common_scale,
    distinct_orderings,
    instance_from_json,
    instance_to_json,
    int_pair,
    make_instance,
    read_instances,
    to_fraction,
    write_instances,
    write_report,
)
from rombit.harness import PROBLEM_TABLE, _sampled_orders, generate_instances
from call_counts import calls_while
from stream_reference import CounterStream


def _bit_instance(bits):
    return make_instance("string_guess", [{"bit": b} for b in bits])


def test_rom_uniformity_n4():
    # all 24 orders observed with frequency 1/24 within 0.01 at K=1e5
    counts = {}
    K = 100000
    for order in _sampled_orders([0, 1, 2, 3], K, seed=1):
        counts[tuple(order)] = counts.get(tuple(order), 0) + 1
    assert len(counts) == 24
    for c in counts.values():
        assert abs(c / K - 1 / 24) <= 0.01


def _throughput_instance(rel_slacks, p=10):
    payloads = [{"release": r, "proc": p, "slack": s} for r, s in rel_slacks]
    return make_instance("throughput", payloads, {"proc": Fraction(p)})


def test_realtime_rom_keeps_releases_sorted():
    inst = _throughput_instance([(0, 5), (2, 0), (2, 20), (7, 5)])
    spec = PROBLEM_TABLE["throughput"]
    view = spec.scale(inst)
    assert view.releases == [0, 2, 2, 7]
    for order in _sampled_orders(view.column, 40, seed=0):
        _, _, last, _ = spec.run(view, order, None)
        # each latest start is the fixed release at its position plus the
        # slack the order places there
        slacks = [s - r for r, s in zip([0, 2, 2, 7], last)]
        assert slacks == list(order)
        assert sorted(slacks) == [0, 5, 5, 20]


def test_realtime_rom_requires_release():
    # the realtime-ROM problems place orders on release positions, so their
    # instances cannot be built without one
    for problem, payload in (
        ("throughput", {"proc": 10, "slack": 0}),
        ("interval", {"length": 2, "weight": 1}),
    ):
        with pytest.raises(InputError):
            make_instance(problem, [payload])


def test_distinct_orderings_match_labeled_enumeration():
    # every distinct ordering is realized by the same number of the n!
    # labeled permutations
    for vals in ([1, 1, 2], [3, 1, 3, 2, 1], [0, 0, 0, 1]):
        orders = list(distinct_orderings(vals))
        assert len(orders) == len(set(orders))
        labeled = Counter(
            tuple(vals[j] for j in perm)
            for perm in itertools.permutations(range(len(vals)))
        )
        assert set(orders) == set(labeled)
        assert len(set(labeled.values())) == 1


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.integers(0, 3), max_size=7),
                 st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=7)))
@example([])
@example([5])
@example([2, 2, 2])
def test_distinct_orderings_are_the_sorted_distinct_permutations(vals):
    # next-permutation steps yield each distinct order once, in lexicographic order
    assert list(distinct_orderings(vals)) == sorted(set(itertools.permutations(vals)))


def test_public_api_resolves():
    import rombit

    assert [name for name in rombit.__all__ if not hasattr(rombit, name)] == []


def test_instance_roundtrip(tmp_path):
    inst = _throughput_instance([(0, Fraction(1, 3)), (Fraction(5, 2), 0)])
    path = tmp_path / "x.jsonl"
    write_instances([inst], path)
    back = read_instances(path)
    assert len(back) == 1
    assert back[0] == inst
    # a float in meta has no exact JSON form
    with pytest.raises(InputError, match=r"^cannot encode 1\.5$"):
        write_instances([make_instance("string_guess", [{"bit": 1}], {"x": 1.5})], path)


def test_read_instances_empty_and_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_instances(path) == []
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"problem": "nonsense", "items": []}\n')
    with pytest.raises(ParseError) as ei:
        read_instances(bad)
    assert "nonsense" in str(ei.value)
    assert "line 1" in str(ei.value)
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text(instance_to_json(_bit_instance([0, 1])) + "\n{oops\n")
    with pytest.raises(ParseError) as ei:
        read_instances(garbled)
    assert "line 2" in str(ei.value)


@pytest.mark.parametrize("bad", ["[1, 0]", "[true, 2]"])
def test_bad_rational_is_a_parse_error(bad):
    text = ('{"problem": "string_guess", "items": [{"key": [[1, 1]], '
            '"payload": {"bit": %s}}]}' % bad)
    with pytest.raises(ParseError):
        instance_from_json(text)


def test_json_rationals_roundtrip():
    inst = _bit_instance([0, 1])
    again = instance_from_json(instance_to_json(inst))
    assert again == inst


# [num, den] pairs, negative, unreduced and with a zero numerator, and with
# a denominator of either sign, which ``int_pair`` makes positive
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-24, 24).filter(bool)).map(list),
                max_size=12))
@example([])
@example([[0, 5]])
@example([[-2, 4], [6, -8], [0, 3], [9, 6]])
def test_common_scale_matches_the_fraction_reference(pairs):
    fracs = [Fraction(x, d) for x, d in pairs]
    coerced = [int_pair(p) for p in pairs]
    assert all(d > 0 and Fraction(x, d) == f for (x, d), f in zip(coerced, fracs))
    ints, den = common_scale([x for x, _ in coerced], [d for _, d in coerced])
    assert den == math.lcm(*(f.denominator for f in fracs))
    assert ints == [int(f * den) for f in fracs]


@pytest.mark.parametrize("bad", [[1, 0], True, 1.5, [1, 2, 3], (1, 2)])
def test_not_a_rational_is_one_message(bad):
    # a zero denominator, a bool, a float, a 3-list and a tuple, coerced
    # directly, as a Fraction and as a payload value
    for coerce in (int_pair, to_fraction,
                   lambda x: make_instance("knapsack_general", [{"value": x, "weight": 1}])):
        with pytest.raises(InputError) as ei:
            coerce(bad)
        assert str(ei.value) == f"not a rational: {bad!r}"


# (problem, family, extra parameters): every family, and each interval variant
GENERATED = [
    (problem, family, extra)
    for problem, spec in PROBLEM_TABLE.items()
    for family in spec.families
    for extra in ([{"variant": v} for v in ("single", "monotone", "c_benevolent")]
                  if problem == "interval" else [{}])
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(GENERATED), st.integers(1, 9), st.integers(0, 2**40))
def test_generated_instances_roundtrip_through_json(case, n, seed):
    problem, family, extra = case
    inst = generate_instances(problem, family, {"n": n, **extra}, 1, seed)[0]
    text = instance_to_json(inst)
    assert instance_from_json(text) == inst
    assert instance_to_json(instance_from_json(text)) == text


def _encode_meta(v):
    return ([v.numerator, v.denominator] if isinstance(v, Fraction)
            else [_encode_meta(x) for x in v] if isinstance(v, (list, tuple)) else v)


def _nested_dict_json(inst):
    """``instance_to_json`` as the nested-dict encoder: ``json.dumps`` over
    one dict per item of Fraction values (``_reference_to_json``)."""
    payloads = [{f: Fraction(x, inst.den) for f, x in it.payload.items()} for it in inst.items]
    return _reference_to_json(inst.problem, payloads,
                              {k: _encode_meta(v) for k, v in inst.meta.items()})


@pytest.mark.parametrize("n", [1, 9, 24, 32])
@pytest.mark.parametrize("case", GENERATED)
def test_writer_matches_the_nested_dict_encoder(case, n):
    problem, family, extra = case
    for inst in generate_instances(problem, family, {"n": n, **extra}, 3, 11):
        assert instance_to_json(inst) == _nested_dict_json(inst)


def test_writer_matches_the_nested_dict_encoder_on_meta():
    name = 'a "quoted" \\ back\\slash, caf\u00e9 \u2713 \U0001d400'
    table = [[Fraction(2), Fraction(4)], [Fraction(5, 2), Fraction(25, 4)]]
    cben = make_instance("interval", [
        {"weight": Fraction(25, 4), "length": Fraction(5, 2), "release": 0},
        {"weight": 4, "length": 2, "release": Fraction(7, 3)}],
        {"variant": "c_benevolent", "weight_table": table, "id": name})
    jobs = make_instance("throughput", [
        {"proc": Fraction(15, 2), "slack": s, "release": r}
        for r, s in ((0, 0), (Fraction(15, 4), Fraction(15, 2)), (11, 30))],
        {"proc": Fraction(15, 2), "id": name, "note": ["x", -3, Fraction(-1, 6)]})
    for inst in (cben, jobs):
        text = instance_to_json(inst)
        assert text == _nested_dict_json(inst)
        assert instance_from_json(text) == inst


@pytest.mark.parametrize("case", GENERATED)
def test_generated_denominator_is_reduced(case):
    # the least common denominator: a family whose values skipped the gcd
    # reduction would write the same file but scale knapsack's cap and unit
    problem, family, extra = case
    for n, seed in itertools.product((1, 5, 24), (3, 17, 40)):
        for inst in generate_instances(problem, family, {"n": n, **extra}, 4, seed):
            assert inst.den == math.lcm(*(Fraction(x, inst.den).denominator
                                          for it in inst.items for x in it.payload.values()))


def _fraction_constructions(fn):
    """How many times ``Fraction.__new__`` runs while ``fn()`` runs."""
    return calls_while(fn, lambda code: code is Fraction.__new__.__code__)


@pytest.mark.parametrize("case", GENERATED)
def test_generation_builds_no_fraction_per_item(case):
    # family parameters are Fractions (``_rational``, ``_unit``), and a
    # C-benevolent weight table holds two per pooled length; nothing else is
    # a Fraction, so the count is the same at every n
    problem, family, extra = case

    def count(n, seed):
        out = []
        made = _fraction_constructions(lambda: out.extend(
            generate_instances(problem, family, {"n": n, **extra}, 1, seed)))
        return made - 2 * len(out[0].meta_value("weight_table", []))

    for seed in range(3):
        assert count(32, seed) == count(8, seed)


def _knapsack_line(key, value, weight):
    return json.dumps({"problem": "knapsack_general", "items": [
        {"key": key, "payload": {"value": value, "weight": weight}}]})


def _reference_rational(c):
    """A key coordinate parsed without the fast path: an int or an int pair
    with a nonzero denominator, never a bool or a float; None otherwise."""
    if type(c) is int:
        return Fraction(c)
    if isinstance(c, list) and len(c) == 2 and all(type(x) is int for x in c) and c[1]:
        return Fraction(c[0], c[1])
    return None


_PAYLOAD_RATIONAL = st.one_of(
    st.integers(-3, 3),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4).filter(bool)).map(list))
_KEY_RATIONAL = st.one_of(
    _PAYLOAD_RATIONAL,
    st.lists(st.one_of(st.integers(-4, 4), st.booleans(), st.just(1.0)),
             min_size=1, max_size=3),
    st.booleans(), st.just(1.0), st.just(-2.0))


@settings(max_examples=400, deadline=None)
@given(_PAYLOAD_RATIONAL, _PAYLOAD_RATIONAL, st.data())
def test_key_check_matches_the_parsing_reference(value, weight, data):
    # keys that copy the payload, the payload with a coordinate swapped for
    # an equal bool or float, and unrelated keys
    copies = st.just([value, weight])
    key = data.draw(st.one_of(copies, st.lists(_KEY_RATIONAL, min_size=2, max_size=2),
                              st.tuples(copies, st.integers(0, 1), _KEY_RATIONAL).map(
                                  lambda t: [t[2] if i == t[1] else c
                                             for i, c in enumerate(t[0])])))
    parsed = [_reference_rational(c) for c in key]
    line = _knapsack_line(key, value, weight)
    if parsed == [_reference_rational(value), _reference_rational(weight)]:
        inst = instance_from_json(line)
        assert tuple(Fraction(c, inst.den) for c in inst.items[0].key) == tuple(parsed)
    else:
        with pytest.raises(ParseError):
            instance_from_json(line)


def test_key_check_cases():
    # an unnormalized key, or an int for an integral pair, is the same
    # rational as its payload's
    inst = instance_from_json(_knapsack_line([[2, 4], [1, 3]], [1, 2], [1, 3]))
    assert tuple(Fraction(c, inst.den) for c in inst.items[0].key) == (
        Fraction(1, 2), Fraction(1, 3))
    assert instance_from_json(_knapsack_line([1, [1, 3]], [1, 1], [1, 3])) == make_instance(
        "knapsack_general", [{"value": 1, "weight": Fraction(1, 3)}])
    with pytest.raises(ParseError) as ei:
        instance_from_json(_knapsack_line([[1, 2], [1, 3]], [1, 2], [1, 2]), line=1)
    assert str(ei.value) == ("line 1: item 0 key [[1, 2], [1, 3]] is not its "
                             "payload's key [[1, 2], [1, 2]]")
    # a bool is no int, even where the payload holds the equal int
    for key, value in (([[True, 1], [1, 2]], [1, 1]), ([[1, True], [1, 2]], [1, 1]),
                       ([True, [1, 2]], 1), ([1.0, [1, 2]], 1)):
        with pytest.raises(ParseError, match="not a rational"):
            instance_from_json(_knapsack_line(key, value, [1, 2]))


def _as_fraction(x):
    return Fraction(*x) if isinstance(x, list) else Fraction(x)


def _signed_pairs(num, den):
    """[num, den] pairs, unnormalized, and with the signs of both flipped."""
    return st.tuples(num, den, st.integers(1, 3), st.booleans()).map(
        lambda t: [t[0] * t[2], t[1] * t[2]] if t[3] else [-t[0] * t[2], -t[1] * t[2]])


# payload values in every accepted form: ints, Fractions and [num, den] pairs
_ANY_VALUE = st.one_of(
    st.integers(-30, 30), st.fractions(max_denominator=12),
    _signed_pairs(st.integers(-30, 30), st.integers(1, 12)))
# releases must be non-negative, so both sides of a pair share one sign
_RELEASE = st.one_of(
    st.integers(0, 30), st.fractions(min_value=0, max_denominator=12),
    _signed_pairs(st.integers(0, 30), st.integers(1, 12)))


def _reference_to_json(problem, payloads, meta):
    """The instance line as a Fraction encoder writes it: every key and
    payload value is its reduced [num, den] pair."""
    key_fields = PAYLOAD_FIELDS[problem][:2]
    items = []
    for p in payloads:
        enc = {f: [_as_fraction(x).numerator, _as_fraction(x).denominator]
               for f, x in p.items()}
        items.append({"key": [enc[f] for f in key_fields], "payload": enc})
    return json.dumps({"problem": problem, "meta": meta, "items": items},
                      sort_keys=True, separators=(",", ":"))


@st.composite
def _payloads(draw):
    problem = draw(st.sampled_from(sorted(PAYLOAD_FIELDS)))
    fields = PAYLOAD_FIELDS[problem]
    n = draw(st.integers(1, 6))
    payloads = [{f: draw(_ANY_VALUE) for f in fields if f != "release"} for _ in range(n)]
    if "release" in fields:
        releases = sorted((draw(_RELEASE) for _ in range(n)), key=_as_fraction)
        for p, r in zip(payloads, releases):
            p["release"] = r
    return problem, payloads


@settings(max_examples=200, deadline=None)
@given(_payloads())
def test_stored_values_are_ints_over_the_instance_denominator(case):
    problem, payloads = case
    meta = {"id": "h-0"}
    inst = make_instance(problem, payloads, meta)
    key_fields = PAYLOAD_FIELDS[problem][:2]
    for p, it in zip(payloads, inst.items):
        assert all(type(x) is int for x in it.payload.values())
        assert {f: Fraction(x, inst.den) for f, x in it.payload.items()} == {
            f: _as_fraction(x) for f, x in p.items()}
        assert tuple(Fraction(x, inst.den) for x in it.key) == tuple(
            _as_fraction(p[f]) for f in key_fields)
    assert instance_to_json(inst) == _reference_to_json(problem, payloads, meta)


def test_write_report_rejects_an_unknown_format(tmp_path):
    path = tmp_path / "report.xml"
    with pytest.raises(InputError, match="^unknown report format 'xml'$"):
        write_report([{"opt": 1}], path, "xml")
    assert not path.exists()


def test_instance_validation():
    with pytest.raises(InputError):
        make_instance("string_guess", [])
    with pytest.raises(InputError, match="^unknown problem 'foo'$"):
        make_instance("foo", [{"bit": 1}])
    with pytest.raises(InputError):
        make_instance(
            "throughput",
            [
                {"release": 5, "proc": 10, "slack": 0},
                {"release": 1, "proc": 10, "slack": 0},
            ],
        )


def _reference_columns(problem, payloads):
    """``make_instance``'s columns and ``den``, one value at a time in item
    order with Fractions: (columns, den), or the text of the InputError it
    raises first.  A value is an int (no bool), a Fraction, or a list of two
    ints (no bools) with a nonzero denominator."""
    fields = PAYLOAD_FIELDS[problem]
    values = []
    for p in payloads:
        for f in fields:
            if f not in p:
                return f"item has no {f!r} payload field"
            x = p[f]
            if type(x) is int or isinstance(x, Fraction):
                values.append(Fraction(x))
            elif type(x) is list and len(x) == 2 and all(type(c) is int for c in x) and x[1]:
                values.append(Fraction(x[0], x[1]))
            else:
                return f"not a rational: {x!r}"
    if not values:
        return "instance has no items"
    den = math.lcm(*(v.denominator for v in values))
    columns = {f: [int(v * den) for v in values[j::len(fields)]]
               for j, f in enumerate(fields)}
    rel = columns.get("release", [0])
    if min(rel) < 0:
        return "release must be non-negative"
    if rel != sorted(rel):
        return "releases must be non-decreasing in item order"
    return columns, den


_PAIR = st.tuples(st.integers(-20, 20), st.integers(1, 12)).map(list)
_ODD_LIST = st.one_of(
    st.tuples(st.integers(-5, 5), st.integers(-4, 0)).map(list),  # zero or negative den
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.one_of(st.booleans(), st.integers(1, 3), st.just(2.0)), min_size=2,
             max_size=2))
_ODD_VALUE = st.one_of(_ODD_LIST, st.booleans(), st.floats(-2, 2),
                       st.fractions(max_denominator=12))


@st.composite
def _mixed_payloads(draw):
    """A problem and payloads whose columns each hold ints only, [num, den >
    0] pairs only (the bulk route), lists that may be odd, or any mix with
    odd values; releases are sorted in the first two, and a field may be
    missing."""
    problem = draw(st.sampled_from(sorted(PAYLOAD_FIELDS)))
    fields = PAYLOAD_FIELDS[problem]
    n = draw(st.integers(0, 5))
    columns = {}
    for f in fields:
        style = draw(st.sampled_from(["ints", "pairs", "lists", "mixed"]))
        if style == "ints":
            col = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        elif style == "pairs":
            col = draw(st.lists(_PAIR.map(lambda p: [abs(p[0]), p[1]]), min_size=n,
                                max_size=n))
        elif style == "lists":
            col = draw(st.lists(st.one_of(_PAIR, _ODD_LIST), min_size=n, max_size=n))
        else:
            col = draw(st.lists(st.one_of(st.integers(-3, 20), _PAIR, _ODD_VALUE),
                                min_size=n, max_size=n))
        if f == "release" and style in ("ints", "pairs"):
            col.sort(key=_as_fraction)
        columns[f] = col
    payloads = [{f: columns[f][i] for f in fields} for i in range(n)]
    if n and draw(st.integers(0, 9)) == 0:
        del payloads[draw(st.integers(0, n - 1))][draw(st.sampled_from(fields))]
    return problem, payloads


@settings(max_examples=400, deadline=None)
@given(_mixed_payloads())
@example(("knapsack_general", [{"value": [1, 2], "weight": [1, 0]}]))
@example(("knapsack_general", [{"value": [1, 2], "weight": [3, -4]}]))
@example(("knapsack_general", [{"value": [1, 2], "weight": [1, 2, 3]}]))
@example(("knapsack_general", [{"value": [True, 2], "weight": [1, 2]}]))
@example(("knapsack_general", [{"value": [1, 2], "weight": [1, 2.0]}]))
@example(("knapsack_general", [{"value": [1, 2], "weight": 1}]))
def test_bulk_columns_match_the_per_value_reference(case):
    # the same den and columns, or the same error text, from make_instance
    # and, where the payloads are JSON, from a line that holds them
    problem, payloads = case
    fields = PAYLOAD_FIELDS[problem]
    want = _reference_columns(problem, payloads)
    line = None
    if not any(isinstance(x, Fraction) for p in payloads for x in p.values()):
        line = json.dumps({"problem": problem, "items": [
            {"key": [p[f] for f in fields[:2] if f in p], "payload": p} for p in payloads]})
    if isinstance(want, str):
        with pytest.raises(InputError) as ei:
            make_instance(problem, payloads)
        assert str(ei.value) == want
        if line is not None:
            with pytest.raises(ParseError) as ei:
                instance_from_json(line, line=4)
            assert str(ei.value) == "line 4: " + want
        return
    inst = make_instance(problem, payloads)
    assert ({f: inst.columns[f] for f in fields}, inst.den) == want
    assert line is None or instance_from_json(line) == inst


_MUTATED_LINES = {
    "item-not-object": ({1: lambda rec: 5}, "item 1 must be a JSON object"),
    "item-list": ({2: lambda rec: [1, 2]}, "item 2 must be a JSON object"),
    "key-not-array": ({1: lambda rec: {**rec, "key": "x"}}, "item 1 key must be a JSON array"),
    "key-missing": ({2: lambda rec: {"payload": rec["payload"]}},
                    "item 2 key must be a JSON array"),
    "key-unequal": ({1: lambda rec: {**rec, "key": [[1, 2], [5, 2]]}},
                    "item 1 key [[1, 2], [5, 2]] is not its payload's key [[1, 1], [5, 2]]"),
    "key-short": ({1: lambda rec: {**rec, "key": [[1, 1]]}},
                  "item 1 key [[1, 1]] is not its payload's key [[1, 1], [5, 2]]"),
    # every key's coordinates, read in one run, are the payloads' in order
    "key-shifted": ({0: lambda rec: {**rec, "key": [[3, 2]]},
                     1: lambda rec: {**rec, "key": [[2, 1], [1, 1], [5, 2]]}},
                    "item 0 key [[3, 2]] is not its payload's key [[3, 2], [2, 1]]"),
    "key-bool": ({1: lambda rec: {**rec, "key": [True, [5, 2]]}}, "not a rational: True"),
    "key-bool-in-pair": ({0: lambda rec: {**rec, "key": [[3, 2], [2, True]]}},
                         "not a rational: [2, True]"),
    "key-float": ({2: lambda rec: {**rec, "key": [[1, 4], 2.0]}}, "not a rational: 2.0"),
    "key-float-in-pair": ({2: lambda rec: {**rec, "key": [[1, 4.0], [2, 1]]}},
                          "not a rational: [1, 4.0]"),
    "payload-not-object": ({1: lambda rec: {**rec, "payload": [1]}},
                           "payload must be a JSON object"),
    "payload-missing": ({1: lambda rec: {"key": rec["key"]}},
                        "item has no 'weight' payload field"),
}


@pytest.mark.parametrize("name", sorted(_MUTATED_LINES))
def test_mutated_instance_lines_keep_their_errors(name):
    # the texts of the per-item parser that read items one dict at a time
    inst = make_instance("interval", [{"weight": [3, 2], "length": 2, "release": 0},
                                      {"weight": 1, "length": [5, 2], "release": [1, 3]},
                                      {"weight": [1, 4], "length": 2, "release": 7}])
    obj = json.loads(instance_to_json(inst))
    changes, message = _MUTATED_LINES[name]
    for i, mutate in changes.items():
        obj["items"][i] = mutate(obj["items"][i])
    with pytest.raises(ParseError) as ei:
        instance_from_json(json.dumps(obj), line=3)
    assert str(ei.value) == "line 3: " + message


def _items_per_item(line):
    """An instance line's (key, payload) per item, each rational of its JSON
    taken as a Fraction and scaled over the least common denominator."""
    records = json.loads(line)["items"]
    den = math.lcm(*(Fraction(*v).denominator for rec in records
                     for v in rec["payload"].values()))
    return [(tuple(int(Fraction(*c) * den) for c in rec["key"]),
             {f: int(Fraction(*v) * den) for f, v in rec["payload"].items()})
            for rec in records]


@pytest.mark.parametrize("case", GENERATED)
def test_items_view_matches_the_per_item_construction(case, tmp_path):
    problem, family, extra = case
    insts = generate_instances(problem, family, {"n": [1, 7, 12], **extra}, 6, 5)
    path = tmp_path / "insts.jsonl"
    write_instances(insts, path)
    for inst, read in zip(insts, read_instances(path), strict=True):
        want = _items_per_item(instance_to_json(inst))
        for source in (inst, read):
            assert [(it.key, it.payload) for it in source.items] == want
            assert source.items is source.items  # built once
        assert read == inst and read.n == inst.n == len(want)


def _int_pair_calls(fn):
    """How many times ``int_pair`` runs while ``fn()`` runs."""
    return calls_while(fn, lambda code: code is int_pair.__code__)


@pytest.mark.parametrize("case", GENERATED)
def test_reading_a_written_file_calls_int_pair_zero_times(case, tmp_path):
    # every value of a written file is a [num, den > 0] pair, which the
    # column route scales without a per-value call
    problem, family, extra = case
    path = tmp_path / "insts.jsonl"
    write_instances(generate_instances(problem, family, {"n": [2, 9], **extra}, 4, 3), path)
    assert _int_pair_calls(lambda: read_instances(path)) == 0
    # ints take the column route too; a Fraction takes the per-value route
    fields = PAYLOAD_FIELDS[problem]
    assert _int_pair_calls(lambda: make_instance(problem, [dict.fromkeys(fields, 1)])) == 0
    payload = {f: Fraction(1, 2) if f != "bit" else Fraction(1) for f in fields}
    assert _int_pair_calls(lambda: make_instance(problem, [payload])) == len(fields)


def _chi2(counts, expected):
    return sum((c - expected) ** 2 / expected for c in counts)


def test_counter_stream_range_and_determinism():
    for seed, ix in ((0, ()), (7, (3,)), (2**70 + 5, (1, 2))):
        for bound in (1, 2, 3, 7, 10**5, 2**64):
            a = CounterStream(seed, *ix)
            b = CounterStream(seed, *ix)
            xs = [a.below(bound) for _ in range(50)]
            assert xs == [b.below(bound) for _ in range(50)]
            assert all(0 <= x < bound for x in xs)
    # a different seed or index gives a different stream
    streams = [CounterStream(s, t) for s in range(3) for t in range(3, 6)]
    assert len({tuple(c.below(2**64) for _ in range(3)) for c in streams}) == 9
    for bad in (0, -1, 2**64 + 1):
        with pytest.raises(InputError):
            CounterStream(1).below(bad)


@pytest.mark.parametrize("bound,limit", [(2, 10.83), (3, 13.82), (7, 22.46)])
def test_counter_stream_chi_square(bound, limit):
    # 0.999 quantiles of chi-square with bound - 1 degrees of freedom
    draws = 7000
    counts = [0] * bound
    for t in range(draws // 7):
        s = CounterStream(11, t)
        for _ in range(7):
            counts[s.below(bound)] += 1
    assert _chi2(counts, draws / bound) < limit


def test_counter_stream_rejection_near_2_63():
    # For bound 3 * 2**62 the high word of x * bound is floor(3x / 4): without
    # the rejection step, values divisible by 3 would take half of all draws.
    bound = 3 << 62
    s = CounterStream(5)
    counts = [0, 0, 0]
    for _ in range(3000):
        x = s.below(bound)
        assert 0 <= x < bound
        counts[x % 3] += 1
    assert _chi2(counts, 1000) < 13.82
