"""Dual-process throughput scheduling: classification, lock dynamics, oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rombit.core import CapacityError, distinct_orderings
from rombit.throughput import (
    OPT_GUARD,
    Entry,
    Job,
    _Process,
    classify,
    dual_run,
    flip_time,
    is_normal,
    offline_opt_throughput,
    process_step,
    rom_simulation,
)

J = Job


def test_classify_examples():
    assert classify([], 0, 10) == "flexible"
    two_tight = [J(0, 10, 0, 0), J(0, 10, 0, 1)]
    assert classify(two_tight, 0, 10) == "infeasible"
    mixed = [J(0, 10, 1, 0), J(0, 10, 11, 1)]
    assert classify(mixed, 0, 10) == "urgent"
    assert classify([J(0, 10, 30, 0)], 0, 10) == "flexible"


def test_process_step_branches():
    p = 10
    jobs = [J(0, p, 0, 0)]
    # urgent set: start even though the other process holds the lock
    proc = _Process("Y")
    lock = process_step(proc, jobs, 0, p, "X")
    assert proc.running is not None and lock == "X"
    # flexible set, free lock: acquire it
    jobs = [J(0, p, 40, 0)]
    proc = _Process("X")
    lock = process_step(proc, jobs, 0, p, None)
    assert lock == "X" and proc.running[2]
    # flexible set, lock taken: do nothing
    proc = _Process("Y")
    lock = process_step(proc, jobs, 0, p, "X")
    assert proc.running is None and lock == "X"


def test_single_job_both_processes():
    for slack in (25, 3):
        xs, ys = dual_run([J(0, 10, slack, 0)], 10)
        assert len(xs) == 1 and len(ys) == 1


def test_two_identical_zero_slack_golden():
    xs, ys = dual_run([J(0, 10, 0, 0), J(0, 10, 0, 1)], 10)
    assert [(e.job.label, e.start) for e in xs] == [(0, 0)]
    assert [(e.job.label, e.start) for e in ys] == [(0, 0)]


def test_lock_asymmetry_flexible_start():
    # one relaxed job: X takes it under the lock; Y gets the lock back at
    # X's completion and starts flexibly then
    jobs = [J(0, 10, 30, 0)]
    xs, ys = dual_run(jobs, 10)
    assert xs[0].start == 0 and xs[0].flexible
    assert ys[0].start == 10 and ys[0].flexible


def test_lock_asymmetry_wake_at_flip():
    # the lock is still held when flexibility lapses: Y wakes at the flip
    # instant and starts the ED job urgently, without the lock
    jobs = [J(0, 10, 12, 0), J(0, 10, 40, 1)]
    xs, ys = dual_run(jobs, 10)
    assert xs[0].start == 0 and xs[0].flexible
    assert ys[0].start == flip_time(jobs, 10) == 2
    assert not ys[0].flexible
    assert {e.job.label for e in xs} == {e.job.label for e in ys} == {0, 1}


def test_rom_simulation_two_identical_then_distinct():
    arr = [J(0, 10, 2, 0), J(0, 10, 2, 1), J(5, 10, 20, 2)]
    run = rom_simulation(arr, 10)
    assert run.bit == 1 and run.breakpoint == 0
    assert len(run.x) == 2 and len(run.y) == 2
    assert offline_opt_throughput(arr, 10) == 2
    assert is_normal(run.x, arr, 10)[0] and is_normal(run.y, arr, 10)[0]


def test_rom_simulation_identical_jobs_optimal():
    arr = [J(0, 10, 5, 0), J(0, 10, 5, 1), J(12, 10, 5, 2)]
    run = rom_simulation(arr, 10)
    assert run.bit is None
    assert len(run.chosen) == offline_opt_throughput(arr, 10)
    assert is_normal(run.chosen, arr, 10)[0]  # phase-1-only output is normal


def test_preemption_when_breakpoint_set_is_flexible():
    # running flexible job at B: X keeps it (with the lock), Y abandons it
    arr = [J(0, 10, 40, 0), J(0, 10, 40, 1), J(5, 10, 0, 2)]
    run = rom_simulation(arr, 10)
    assert run.breakpoint == 0
    x0 = run.x_tail[0]
    assert (x0.job.label, x0.start, x0.flexible) == (0, 0, True)
    # Y never ran the abandoned job before the distinct release
    assert run.y_tail[0].job.label == 2 and run.y_tail[0].start == 5


def test_is_normal_detects_violations():
    jobs = [J(0, 10, 0, 0)]
    # idling through an urgent instant: never started the only job
    ok, why = is_normal([], jobs, 10)
    assert not ok and "idle" in why
    # wrong job first
    jobs = [J(0, 10, 0, 0), J(0, 10, 5, 1)]
    bad = [Entry(job=jobs[1], start=0, flexible=False)]
    ok, why = is_normal(bad, jobs, 10)
    assert not ok and "ED" in why


def test_chrobak_dual_charging_bound():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 6)
        rel = sorted(rng.randrange(0, 25) for _ in range(n))
        jobs = [J(rel[i], 10, rng.choice([0, 5, 10, 30]), i) for i in range(n)]
        xs, ys = dual_run(jobs, 10)
        opt = offline_opt_throughput(jobs, 10)
        assert 6 * opt <= 5 * (len(xs) + len(ys))


def test_oracle_examples_and_guard():
    assert offline_opt_throughput(
        [J(0, 10, 0, 0), J(20, 10, 0, 1), J(40, 10, 0, 2)], 10) == 3
    assert offline_opt_throughput([J(0, 10, 0, 0), J(0, 10, 0, 1)], 10) == 1
    with pytest.raises(CapacityError):
        offline_opt_throughput([J(0, 1, 0, i) for i in range(11)], 1)


def test_decomposition_and_prefix_extension():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(3, 6)
        rel = [0]
        for _ in range(n - 1):
            rel.append(rel[-1] + rng.choice([0, 2, 5, 10]))
        sup = [0, 5, 10, 40]
        slacks = [rng.choice(sup[: rng.randint(2, 3)]) for _ in range(n)]
        for order in distinct_orderings(slacks):
            jobs = [J(rel[i], 10, order[i], i) for i in range(n)]
            run = rom_simulation(jobs, 10)
            if run.breakpoint is None:
                continue
            xs, ys = dual_run(run.subinstance, 10, start_time=run.breakpoint)
            assert xs == run.x_tail and ys == run.y_tail
            opt = offline_opt_throughput(jobs, 10)
            assert opt == len(run.prefix) + offline_opt_throughput(run.subinstance, 10)


def test_inequalities_small_batch():
    rng = random.Random(77)
    for _ in range(25):
        n = rng.randint(3, 6)
        rel = [0]
        for _ in range(n - 1):
            rel.append(rel[-1] + rng.choice([0, 2, 3, 5, 10, 13]))
        sup = [0, 5, 10, 20, 40]
        slacks = [rng.choice(sup[: rng.randint(2, 4)]) for _ in range(n)]
        for order in distinct_orderings(slacks):
            jobs = [J(rel[i], 10, order[i], i) for i in range(n)]
            run = rom_simulation(jobs, 10)
            opt = offline_opt_throughput(jobs, 10)
            nx, ny = len(run.x), len(run.y)
            assert 6 * opt <= 5 * (nx + ny)
            if nx and ny:
                assert Fraction(1, 2) <= Fraction(nx, ny) <= 2
            else:
                assert max(nx, ny) <= 1
            assert is_normal(run.x, jobs, 10)[0]
            assert is_normal(run.y, jobs, 10)[0]


def reference_opt_throughput(jobs, p):
    """Memoized DFS over (time, remaining mask) with no canonical state: the
    reference for offline_opt_throughput."""
    if len(jobs) > OPT_GUARD:
        raise CapacityError(f"n={len(jobs)} exceeds oracle guard {OPT_GUARD}")
    jobs = list(jobs)
    memo = {}

    def rec(t, remaining):
        key = (t, remaining)
        if key in memo:
            return memo[key]
        best = 0
        for i, j in enumerate(jobs):
            if not remaining >> i & 1:
                continue
            s = t if t > j.release else j.release
            if s > j.expiry:
                continue
            v = 1 + rec(s + p, remaining & ~(1 << i))
            if v > best:
                best = v
        memo[key] = best
        return best

    full = (1 << len(jobs)) - 1
    return rec(min((j.release for j in jobs), default=0), full)


def offline_opt_orderings(jobs, p):
    """Independent cross-check: try every subset in every start order."""
    n = len(jobs)
    if n > 8:
        raise CapacityError("ordering cross-check limited to n <= 8")
    best = 0
    for mask in range(1 << n):
        chosen = [jobs[i] for i in range(n) if mask >> i & 1]
        if len(chosen) <= best:
            continue
        ok = False
        for order in itertools.permutations(chosen):
            t = 0
            good = True
            for j in order:
                s = t if t > j.release else j.release
                if s > j.expiry:
                    good = False
                    break
                t = s + p
            if good:
                ok = True
                break
        if ok:
            best = len(chosen)
    return best


@st.composite
def oracle_inputs(draw, max_n):
    """Jobs in no particular release order, with equal releases, idle gaps,
    zero slack, slack up to 4p and negative slack (latest start before
    release)."""
    p = draw(st.sampled_from([1, 2, 10]))
    n = draw(st.integers(0, max_n))
    release = st.one_of(st.sampled_from([0, p, 8 * p]), st.integers(0, 3 * p))
    slack = st.one_of(st.sampled_from([0, p, 4 * p, -1]), st.integers(-p, 4 * p))
    jobs = [J(draw(release), p, draw(slack), i) for i in range(n)]
    return jobs, p


@settings(max_examples=300, deadline=None)
@given(oracle_inputs(max_n=7))
def test_oracle_against_ordering_bruteforce(case):
    jobs, p = case
    assert offline_opt_throughput(jobs, p) == offline_opt_orderings(jobs, p)


@settings(max_examples=200, deadline=None)
@given(oracle_inputs(max_n=OPT_GUARD), st.randoms(use_true_random=False))
def test_oracle_matches_reference_dfs_and_ignores_labels(case, rng):
    jobs, p = case
    opt = offline_opt_throughput(jobs, p)
    assert opt == reference_opt_throughput(jobs, p)
    shuffled = [J(j.release, j.proc, j.slack, 100 - k)
                for k, j in enumerate(rng.sample(jobs, len(jobs)))]
    assert offline_opt_throughput(shuffled, p) == opt
