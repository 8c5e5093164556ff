"""Instance model, the harness arrival model, ordering enumeration, serialization."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from rombit.core import (
    InputError,
    ParseError,
    distinct_orderings,
    instance_from_json,
    instance_to_json,
    make_instance,
    read_instances,
    write_instances,
)
from rombit.harness import PROBLEM_TABLE, _sampled_orders
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
        _, _, last, _, _ = spec.run(view, order, None)
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


def test_instance_validation():
    with pytest.raises(InputError):
        make_instance("string_guess", [])
    with pytest.raises(InputError):
        make_instance(
            "throughput",
            [
                {"release": 5, "proc": 10, "slack": 0},
                {"release": 1, "proc": 10, "slack": 0},
            ],
        )


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
