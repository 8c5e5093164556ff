"""Instance model, the harness arrival model, ordering enumeration, serialization."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from rombit.core import (
    CounterStream,
    InputError,
    ParseError,
    distinct_orderings,
    instance_from_json,
    instance_to_json,
    lex_compare,
    make_instance,
    make_item,
    read_instances,
    write_instances,
)
from rombit.harness import _jobs_for, _order_domain, _sampled_orders, scaled_view


def test_lex_compare_examples():
    assert lex_compare((1, 2), (1, 3)) == -1
    assert lex_compare((2,), (2,)) == 0
    assert lex_compare((Fraction(1, 2), 9), (Fraction(3, 5), 0)) == -1
    with pytest.raises(InputError):
        lex_compare((1, 2), (1,))


def test_lex_compare_total_order():
    rng = random.Random(0)
    keys = [
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3))
        for _ in range(60)
    ]
    for a in keys:
        for b in keys:
            cab, cba = lex_compare(a, b), lex_compare(b, a)
            assert cab == -cba
            assert (cab == 0) == (a == b)
    for a in keys[:20]:
        for b in keys[:20]:
            for c in keys[:20]:
                if lex_compare(a, b) <= 0 and lex_compare(b, c) <= 0:
                    assert lex_compare(a, c) <= 0


def _bit_instance(bits):
    return make_instance(
        "string_guess", [make_item((b,), {"bit": b}) for b in bits]
    )


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
    items = [
        make_item((p, s), {"release": r, "proc": p, "slack": s})
        for r, s in rel_slacks
    ]
    return make_instance("throughput", items, {"proc": Fraction(p)})


def test_realtime_rom_keeps_releases_sorted():
    inst = _throughput_instance([(0, 5), (2, 0), (2, 20), (7, 5)])
    view = scaled_view(inst)
    domain = _order_domain(inst, view)
    for order in _sampled_orders(domain, 40, seed=0):
        jobs = _jobs_for(view, order)
        assert [j.release for j in jobs] == [0, 2, 2, 7]
        assert sorted(j.slack for j in jobs) == [0, 5, 5, 20]


def test_realtime_rom_requires_release():
    # the realtime-ROM problems place orders on release positions, so their
    # instances cannot be built without one
    for problem, payload in (
        ("throughput", {"proc": 10, "slack": 0}),
        ("interval", {"length": 2, "weight": 1}),
    ):
        with pytest.raises(InputError):
            make_instance(problem, [make_item((1, 0), payload)])


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
                make_item((10, 0), {"release": 5, "proc": 10, "slack": 0}),
                make_item((10, 0), {"release": 1, "proc": 10, "slack": 0}),
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
