"""Dual-process throughput scheduling: classification, lock dynamics, oracle."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rombit.core import CapacityError, distinct_orderings
from rombit.extraction import harvest
from rombit.throughput import (
    OPT_GUARD,
    Entry,
    RomRun,
    _scan,
    _table,
    is_normal,
    normal_tables,
    offline_opt_throughput,
    rom_simulation,
    run_processes,
)


@dataclass(frozen=True)
class Job:
    """One job as the references below read it."""

    release: int
    proc: int
    slack: int
    label: int = 0

    @property
    def deadline(self):
        return self.release + self.proc + self.slack

    @property
    def expiry(self):
        # latest admissible start time
        return self.release + self.slack


J = Job


class Start(NamedTuple):
    """One start of a reference schedule, naming its Job."""

    job: Job
    start: int
    flexible: bool

    @property
    def completion(self):
        return self.start + self.job.proc


def columns(jobs, p):
    """(rel, last, p), the module's view of Jobs labelled 0..n-1 with
    processing time ``p``: arrival i is the job labelled i."""
    assert [j.label for j in jobs] == list(range(len(jobs)))
    assert all(j.proc == p for j in jobs)
    return [j.release for j in jobs], [j.expiry for j in jobs], p


def labelled(starts):
    """A reference schedule as (label, start, flexible) triples, which
    compare equal to the module's ``Entry(index, start, flexible)``."""
    return [(s.job.label, s.start, s.flexible) for s in starts]


def as_starts(entries, jobs):
    """The module's entries as reference starts of the Jobs they index."""
    return [Start(jobs[e.index], e.start, e.flexible) for e in entries]


def processes(jobs, p, start_time=0, count=2):
    """``run_processes`` on every job of a Job list."""
    return run_processes(*columns(jobs, p), range(len(jobs)), start_time, count)


def fused_classify(jobs, t, p):
    """The classification of a whole job set at t read off one ``_scan``:
    infeasible iff t > f + p, flexible iff t < f, otherwise urgent."""
    if not jobs:
        return "flexible"
    rel, last, _ = columns(jobs, p)
    _, f = _scan(_table(rel, last, range(len(jobs))), rel, last, set(), max(rel),
                 min(last), p)
    if t > f + p:
        return "infeasible"
    return "flexible" if t < f else "urgent"


def test_classify_examples():
    assert fused_classify([], 0, 10) == "flexible"
    two_tight = [J(0, 10, 0, 0), J(0, 10, 0, 1)]
    assert fused_classify(two_tight, 0, 10) == "infeasible"
    mixed = [J(0, 10, 1, 0), J(0, 10, 11, 1)]
    assert fused_classify(mixed, 0, 10) == "urgent"
    assert fused_classify([J(0, 10, 30, 0)], 0, 10) == "flexible"


def test_process_step_branches():
    p = 10
    jobs = [J(0, p, 0, 0)]
    # urgent set: start even though the other process holds the lock
    proc = _ReferenceProcess("Y")
    lock = reference_process_step(proc, jobs, 0, p, "X")
    assert proc.running is not None and lock == "X"
    # flexible set, free lock: acquire it
    jobs = [J(0, p, 40, 0)]
    proc = _ReferenceProcess("X")
    lock = reference_process_step(proc, jobs, 0, p, None)
    assert lock == "X" and proc.running[2]
    # flexible set, lock taken: do nothing
    proc = _ReferenceProcess("Y")
    lock = reference_process_step(proc, jobs, 0, p, "X")
    assert proc.running is None and lock == "X"


def test_single_job_both_processes():
    for slack in (25, 3):
        xs, ys = processes([J(0, 10, slack, 0)], 10)
        assert len(xs) == 1 and len(ys) == 1


def test_two_identical_zero_slack_golden():
    xs, ys = processes([J(0, 10, 0, 0), J(0, 10, 0, 1)], 10)
    assert [(e.index, e.start) for e in xs] == [(0, 0)]
    assert [(e.index, e.start) for e in ys] == [(0, 0)]


def test_lock_asymmetry_flexible_start():
    # one relaxed job: X takes it under the lock; Y gets the lock back at
    # X's completion and starts flexibly then
    jobs = [J(0, 10, 30, 0)]
    xs, ys = processes(jobs, 10)
    assert xs[0].start == 0 and xs[0].flexible
    assert ys[0].start == 10 and ys[0].flexible


def test_lock_asymmetry_wake_at_flip():
    # the lock is still held when flexibility lapses: Y wakes at the flip
    # instant and starts the ED job urgently, without the lock
    jobs = [J(0, 10, 12, 0), J(0, 10, 40, 1)]
    xs, ys = processes(jobs, 10)
    assert xs[0].start == 0 and xs[0].flexible
    assert ys[0].start == reference_flip_time(jobs, 10) == 2
    assert not ys[0].flexible
    assert {e.index for e in xs} == {e.index for e in ys} == {0, 1}


def test_rom_simulation_two_identical_then_distinct():
    arr = columns([J(0, 10, 2, 0), J(0, 10, 2, 1), J(5, 10, 20, 2)], 10)
    run = rom_simulation(*arr)
    assert run.bit == 1 and run.breakpoint == 0
    assert len(run.x) == 2 and len(run.y) == 2
    assert offline_opt_throughput(*arr) == 2
    assert is_normal(run.x, *arr)[0] and is_normal(run.y, *arr)[0]


def test_rom_simulation_identical_jobs_optimal():
    arr = columns([J(0, 10, 5, 0), J(0, 10, 5, 1), J(12, 10, 5, 2)], 10)
    run = rom_simulation(*arr)
    assert run.bit is None
    assert run.value == offline_opt_throughput(*arr)
    assert is_normal(run.x, *arr)[0]  # phase-1-only output is normal


def test_preemption_when_breakpoint_set_is_flexible():
    # running flexible job at B: X keeps it (with the lock), Y abandons it
    run = rom_simulation(*columns([J(0, 10, 40, 0), J(0, 10, 40, 1), J(5, 10, 0, 2)], 10))
    assert run.breakpoint == 0 and run.prefix == []
    assert run.x[0] == (0, 0, True)
    # Y never ran the abandoned job before the distinct release
    assert run.y[0].index == 2 and run.y[0].start == 5


def test_is_normal_detects_violations():
    arr = columns([J(0, 10, 0, 0)], 10)
    # idling through an urgent instant: never started the only job
    ok, why = is_normal([], *arr)
    assert not ok and "idle" in why
    # wrong job first
    arr = columns([J(0, 10, 0, 0), J(0, 10, 5, 1)], 10)
    bad = [Entry(index=1, start=0, flexible=False)]
    ok, why = is_normal(bad, *arr)
    assert not ok and "ED" in why


def test_chrobak_dual_charging_bound():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 6)
        rel = sorted(rng.randrange(0, 25) for _ in range(n))
        jobs = [J(rel[i], 10, rng.choice([0, 5, 10, 30]), i) for i in range(n)]
        xs, ys = processes(jobs, 10)
        opt = offline_opt_throughput(*columns(jobs, 10))
        assert 6 * opt <= 5 * (len(xs) + len(ys))


def test_oracle_examples_and_guard():
    assert offline_opt_throughput(
        *columns([J(0, 10, 0, 0), J(20, 10, 0, 1), J(40, 10, 0, 2)], 10)) == 3
    assert offline_opt_throughput(*columns([J(0, 10, 0, 0), J(0, 10, 0, 1)], 10)) == 1
    with pytest.raises(CapacityError):
        offline_opt_throughput(*columns([J(0, 1, 0, i) for i in range(11)], 1))


def test_decomposition_and_prefix_extension():
    """The continuation on the original columns is the dual run on the
    re-released subinstance J' from B, and OPT = |G| + OPT(J')."""
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
            arr = columns(jobs, 10)
            run = rom_simulation(*arr)
            if run.breakpoint is None:
                continue
            _, sub = reference_rom_simulation(jobs, 10)
            # J' on the module's columns: a re-release keeps the latest start
            sub_rel = list(arr[0])
            for j in sub:
                assert j.expiry == arr[1][j.label]
                sub_rel[j.label] = j.release
            xs, ys = run_processes(sub_rel, arr[1], 10, [j.label for j in sub],
                                   start_time=run.breakpoint)
            g = len(run.prefix)
            assert xs == run.x[g:] and ys == run.y[g:]
            opt = offline_opt_throughput(*arr)
            assert opt == g + offline_opt_throughput(
                [j.release for j in sub], [j.expiry for j in sub], 10)


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
            arr = columns([J(rel[i], 10, order[i], i) for i in range(n)], 10)
            run = rom_simulation(*arr)
            opt = offline_opt_throughput(*arr)
            nx, ny = len(run.x), len(run.y)
            assert 6 * opt <= 5 * (nx + ny)
            if nx and ny:
                assert Fraction(1, 2) <= Fraction(nx, ny) <= 2
            else:
                assert max(nx, ny) <= 1
            assert is_normal(run.x, *arr)[0]
            assert is_normal(run.y, *arr)[0]


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
    release).  In half the draws every job takes one of 1-3 (release,
    slack) pairs, so several jobs share one."""
    p = draw(st.sampled_from([1, 2, 10]))
    n = draw(st.integers(0, max_n))
    release = st.one_of(st.sampled_from([0, p, 8 * p]), st.integers(0, 3 * p))
    slack = st.one_of(st.sampled_from([0, p, 4 * p, -1]), st.integers(-p, 4 * p))
    pairs = st.tuples(release, slack)
    if draw(st.booleans()):
        pairs = st.sampled_from(draw(st.lists(pairs, min_size=1, max_size=3)))
    jobs = [J(r, p, s, i) for i, (r, s) in enumerate(draw(pairs) for _ in range(n))]
    return jobs, p


@settings(max_examples=300, deadline=None)
@given(oracle_inputs(max_n=7))
def test_oracle_against_ordering_bruteforce(case):
    jobs, p = case
    assert offline_opt_throughput(*columns(jobs, p)) == offline_opt_orderings(jobs, p)


@settings(max_examples=200, deadline=None)
@given(oracle_inputs(max_n=OPT_GUARD), st.randoms(use_true_random=False))
def test_oracle_matches_reference_dfs_and_ignores_arrival_order(case, rng):
    jobs, p = case
    opt = offline_opt_throughput(*columns(jobs, p))
    assert opt == reference_opt_throughput(jobs, p)
    shuffled = rng.sample(jobs, len(jobs))
    assert offline_opt_throughput([j.release for j in shuffled],
                                  [j.expiry for j in shuffled], p) == opt


# ---------------------------------------------------------------------------
# The simulation and the normality audit as they were before they ran on int
# lists: copied verbatim apart from the reference_ names and the ``Start``
# records they build, as references for the differential tests below.  They
# name jobs by Job, the module by arrival index; ``columns``, ``labelled``
# and ``as_starts`` translate.
# ---------------------------------------------------------------------------

def reference_ed_order(jobs):
    return sorted(jobs, key=lambda j: (j.deadline, j.label))


def reference_feasible_from(jobs, t, p):
    """Can every job start by its expiry when run back-to-back from t?"""
    cur = t
    for j in reference_ed_order(jobs):
        if cur > j.expiry:
            return False
        cur += p
    return True


def reference_flip_time(jobs, p):
    """Last instant at which the set is still flexible (strictly before it)."""
    best = None
    for k, j in enumerate(reference_ed_order(jobs), start=1):
        v = j.expiry - k * p
        if best is None or v < best:
            best = v
    return best


def reference_classify(jobs, t, p):
    """'infeasible', 'urgent' or 'flexible' for a pending set at time t.

    Empty sets are flexible (vacuously feasible).  The flexible boundary is
    strict: at the last instant where waiting p still works, the set counts
    as urgent, so a locked-out process starts it right there.
    """
    jobs = list(jobs)
    if not jobs:
        return "flexible"
    if not reference_feasible_from(jobs, t, p):
        return "infeasible"
    if t < reference_flip_time(jobs, p):
        return "flexible"
    return "urgent"


class _ReferenceProcess:
    def __init__(self, name):
        self.name = name
        self.entries = []
        self.completed = set()
        self.running = None  # (job, start, holds_lock, flexible)

    def pending(self, jobs, t):
        return [
            j
            for j in jobs
            if j.release <= t <= j.expiry and j.label not in self.completed
        ]


def reference_process_step(proc, jobs, t, p, lock):
    """One decision for an idle process; returns the new lock holder.

    Exactly the three-branch rule: a non-flexible pending set starts the ED
    job immediately (ignoring the lock); a flexible set starts the ED job
    only when the lock is free, acquiring it; otherwise do nothing.
    """
    q = proc.pending(jobs, t)
    if not q:
        return lock
    cls = reference_classify(q, t, p)
    ed = reference_ed_order(q)[0]
    if cls != "flexible":
        proc.running = (ed, t, False, False)
        return lock
    if lock is None:
        proc.running = (ed, t, True, True)
        return proc.name
    return lock


def reference_dual_run(jobs, p, start_time=0):
    """Event-driven simulation of both lock-sharing processes.

    Decision instants are releases, completions and per-process wake-ups (the
    instant an idle process's pending set stops being flexible); between
    instants nothing changes.  X steps before Y at every instant.
    """
    x = _ReferenceProcess("X")
    y = _ReferenceProcess("Y")
    lock = None
    releases = sorted({j.release for j in jobs if j.release >= start_time})
    t = start_time
    while True:
        # completions first, releasing the lock
        for proc in (x, y):
            if proc.running is not None:
                job, s, holds, flex = proc.running
                if s + p == t:
                    proc.entries.append(Start(job=job, start=s, flexible=flex))
                    proc.completed.add(job.label)
                    proc.running = None
                    if holds:
                        lock = None
        for proc in (x, y):
            if proc.running is None:
                lock = reference_process_step(proc, jobs, t, p, lock)
        # next decision instant
        candidates = []
        for proc in (x, y):
            if proc.running is not None:
                candidates.append(proc.running[1] + p)
            else:
                q = proc.pending(jobs, t)
                if q and reference_classify(q, t, p) == "flexible":
                    candidates.append(reference_flip_time(q, p))
        for r in releases:
            if r > t:
                candidates.append(r)
                break
        candidates = [c for c in candidates if c > t]
        if not candidates:
            break
        t = min(candidates)
    return x.entries, y.entries


def reference_single_greedy_run(jobs, p, horizon=None):
    """Phase-1 process: run the ED pending job whenever idle, idle only on
    an empty pending set.  Stops at ``horizon`` and reports the entry still
    running there, if any."""
    proc = _ReferenceProcess("S")
    releases = sorted({j.release for j in jobs})
    t = releases[0] if releases else 0
    if horizon is not None and t > horizon:
        t = horizon
    while horizon is None or t < horizon:
        if proc.running is not None:
            job, s, holds, flex = proc.running
            if s + p == t:
                proc.entries.append(Start(job=job, start=s, flexible=flex))
                proc.completed.add(job.label)
                proc.running = None
        if proc.running is None:
            q = proc.pending(jobs, t)
            if q:
                cls = reference_classify(q, t, p)
                ed = reference_ed_order(q)[0]
                proc.running = (ed, t, False, cls == "flexible")
        candidates = []
        if proc.running is not None:
            candidates.append(proc.running[1] + p)
        for r in releases:
            if r > t:
                candidates.append(r)
                break
        candidates = [c for c in candidates if c > t]
        if horizon is not None:
            candidates = [c for c in candidates if c <= horizon]
        if not candidates:
            break
        t = min(candidates)
    running = None
    if proc.running is not None:
        job, s, holds, flex = proc.running
        if horizon is not None and s + p <= horizon:
            proc.entries.append(Start(job=job, start=s, flexible=flex))
            proc.completed.add(job.label)
        else:
            running = (job, s, flex)
    return proc.entries, running


def reference_is_normal(entries, jobs, p, start_time=0, end_time=None):
    """Replay a schedule against its instance; returns (ok, first_violation).

    Normal means every start picks the earliest-deadline pending job, and the
    machine is never idle over an interval of positive length on which the
    pending set is not flexible.
    """
    entries = sorted(entries, key=lambda e: e.start)
    for a, b in zip(entries, entries[1:]):
        if a.completion > b.start:
            return False, f"entries overlap at {b.start}"
    completed = set()
    for e in entries:
        if e.start < e.job.release or e.start > e.job.expiry:
            return False, f"job {e.job.label} started outside its window"
        pending = [
            j
            for j in jobs
            if j.release <= e.start <= j.expiry and j.label not in completed
        ]
        ed = reference_ed_order(pending)[0]
        if (ed.deadline, ed.label) != (e.job.deadline, e.job.label):
            return False, f"start at {e.start} is not the ED pending job"
        flex = reference_classify(pending, e.start, p) == "flexible"
        if flex != e.flexible:
            return False, f"flexible flag mismatch at {e.start}"
        completed.add(e.job.label)
    # no idle instant may have a non-flexible pending set
    def executing(t):
        return any(e.start <= t < e.completion for e in entries)

    for tau in sorted({j.release for j in jobs} | {j.expiry for j in jobs}):
        if tau < start_time or executing(tau):
            continue
        done_now = {e.job.label for e in entries if e.completion <= tau}
        pending = [
            j
            for j in jobs
            if j.release <= tau <= j.expiry and j.label not in done_now
        ]
        if pending and reference_classify(pending, tau, p) != "flexible":
            return False, f"idle at {tau} with a non-flexible pending set"

    # idle intervals must be flexible throughout
    horizon = max((j.expiry for j in jobs), default=start_time)
    if end_time is not None:
        horizon = max(horizon, end_time)
    gaps = []
    cur = start_time
    done = set()
    for e in entries:
        if e.start > cur:
            gaps.append((cur, e.start, frozenset(done)))
        cur = max(cur, e.completion)
        done.add(e.job.label)
    if horizon > cur:
        gaps.append((cur, horizon, frozenset(done)))
    for lo, hi, done_now in gaps:
        cuts = sorted({lo, hi} | {j.release for j in jobs if lo < j.release < hi}
                      | {j.expiry for j in jobs if lo < j.expiry < hi})
        for u, v in zip(cuts, cuts[1:]):
            pending = [
                j
                for j in jobs
                if j.release <= u and j.expiry >= v and j.label not in done_now
            ]
            if not pending:
                continue
            ft = reference_flip_time(pending, p)
            if v > ft:
                return False, f"idle over [{u},{v}) with a non-flexible pending set"
    return True, None


def reference_rom_simulation(jobs, p):
    """``rom_simulation`` as its docstring states it, on the reference
    processes: with no distinct slack, the phase-1 process on every job;
    otherwise phase 1 on the jobs released before r, the distinct arrival's
    release, stopped at r; B the start of the job running across r, or r;
    G the starts before B; the subinstance J' of the jobs not in G, each
    re-released at max(release, B) and dropped once its latest start is
    before that; and the dual processes on J' from B.  Returns the run, its
    schedules as (label, start, flexible) triples, and J'."""
    bit, ix = harvest((j.proc, j.slack) for j in jobs)
    if ix is None:
        entries = labelled(reference_single_greedy_run(jobs, p)[0])
        return RomRun(None, len(entries), len(entries), x=entries, y=entries,
                      breakpoint=None, prefix=entries), []
    r = jobs[ix].release
    done, running = reference_single_greedy_run([j for j in jobs if j.release < r], p,
                                                horizon=r)
    bpoint = r if running is None else running[1]
    prefix = [e for e in done if e.start < bpoint]
    finished = {e.job.label for e in prefix}
    sub = []
    for j in jobs:
        release = max(j.release, bpoint)
        if j.label not in finished and j.expiry >= release:
            sub.append(J(release, p, j.expiry - release, j.label))
    xs, ys = reference_dual_run(sub, p, start_time=bpoint)
    x, y = labelled(prefix + xs), labelled(prefix + ys)
    return RomRun(bit, len(x), len(y), x=x, y=y, breakpoint=bpoint,
                  prefix=labelled(prefix)), sub


@st.composite
def schedule_inputs(draw, max_n=8):
    """Equal-length jobs labelled by position, with tied releases and
    deadlines and zero slack, releases sorted or not, plus a start time and
    a phase-1 horizon."""
    p = draw(st.sampled_from([1, 2, 3, 10]))
    n = draw(st.integers(0, max_n))
    release = st.one_of(st.sampled_from([0, p]), st.integers(0, 3 * p))
    slack = st.one_of(st.just(0), st.sampled_from([p, 2 * p]), st.integers(0, 4 * p))
    jobs = [J(draw(release), p, draw(slack)) for _ in range(n)]
    if draw(st.booleans()):
        jobs.sort(key=lambda j: j.release)
    jobs = [J(j.release, p, j.slack, i) for i, j in enumerate(jobs)]
    start = draw(st.one_of(st.just(0), st.integers(0, 3 * p)))
    horizon = draw(st.one_of(st.none(), st.integers(0, 5 * p)))
    return jobs, p, start, horizon


@settings(max_examples=300, deadline=None)
@given(schedule_inputs())
def test_fused_classification_matches_classify(case):
    jobs, p, start, _ = case
    for t in range(start - p, start + 5 * p):
        assert fused_classify(jobs, t, p) == reference_classify(jobs, t, p)
    if jobs:
        rel, last, _ = columns(jobs, p)
        first, _ = _scan(_table(rel, last, range(len(jobs))), rel, last, set(), max(rel),
                         min(last), p)
        assert first == reference_ed_order(jobs)[0].label


@settings(max_examples=400, deadline=None)
@given(schedule_inputs())
def test_runs_match_reference(case):
    jobs, p, start, horizon = case
    xs, ys = reference_dual_run(jobs, p, start_time=start)
    assert processes(jobs, p, start_time=start, count=2) == (labelled(xs), labelled(ys))
    (greedy,) = processes(jobs, p, count=1)
    assert greedy == labelled(reference_single_greedy_run(jobs, p)[0])
    if horizon is not None:
        # the phase-1 run cut at the horizon: the entries done by then and
        # the one running across it
        done, running = reference_single_greedy_run(jobs, p, horizon=horizon)
        assert [e for e in greedy if e.start + p <= horizon] == labelled(done)
        across = [e for e in greedy if e.start < horizon < e.start + p]
        assert across == ([] if running is None else labelled([Start(*running)]))
    assert rom_simulation(*columns(jobs, p)) == reference_rom_simulation(jobs, p)[0]


@settings(max_examples=300, deadline=None)
@given(schedule_inputs())
def test_breakpoint_is_phase_one_cut_at_the_distinct_release(case):
    """B and G as the reference phase-1 run stopped at r gives them: B is the
    start of the job running at r, or r, and G the starts before B."""
    jobs, p, _, _ = case
    run = rom_simulation(*columns(jobs, p))
    _, ix = harvest((j.proc, j.slack) for j in jobs)
    if ix is None:
        assert run.breakpoint is None
        return
    r = jobs[ix].release
    done, running = reference_single_greedy_run([j for j in jobs if j.release < r], p,
                                                horizon=r)
    bpoint = r if running is None else running[1]
    assert run.breakpoint == bpoint
    assert run.prefix == labelled([e for e in done if e.start < bpoint])


def normality(check, entries, jobs, p):
    """A normality verdict on reference starts, the reference's from time 0
    with no end time; ``is_normal`` reads them as the module's entries.
    The reference raises IndexError at the first entry (in start order) that
    starts while no job is pending; that maps to the verdict ``is_normal``
    returns for it."""
    if check is is_normal:
        return is_normal([Entry(e.job.label, e.start, e.flexible) for e in entries],
                         *columns(jobs, p))
    try:
        return check(entries, jobs, p)
    except IndexError:
        done = set()
        for e in sorted(entries, key=lambda e: e.start):
            if not any(j.release <= e.start <= j.expiry and j.label not in done for j in jobs):
                return False, f"no job is pending at {e.start}"
            done.add(e.job.label)
        raise


MUTATIONS = ("none", "overlap", "window", "job", "flag", "drop", "delay", "repeat")


def mutate(entries, jobs, p, kind, k, shift):
    """One schedule edit aimed at one violation of ``is_normal``: entries
    that overlap, a start outside its window, a start of another job, a
    flipped flexible flag, a dropped entry (an idle instant or gap), a
    delayed start, or a job started twice."""
    entries = sorted(entries, key=lambda e: e.start)
    if kind == "none" or not entries:
        return entries
    k %= len(entries)
    e = entries[k]
    if kind == "overlap":
        e = e._replace(start=entries[k - 1].start + shift % p if k else e.start)
    elif kind == "window":
        e = e._replace(start=e.job.release - 1 - shift if shift % 2 else e.job.expiry + 1 + shift)
    elif kind == "job":
        e = e._replace(job=jobs[shift % len(jobs)])
    elif kind == "flag":
        e = e._replace(flexible=not e.flexible)
    elif kind == "drop":
        return entries[:k] + entries[k + 1:]
    elif kind == "delay":
        e = e._replace(start=e.start + 1 + shift)
    else:
        return entries + [e._replace(start=entries[-1].completion + shift)]
    return entries[:k] + [e] + entries[k + 1:]


def schedules(jobs, p, start):
    """The module's schedules of ``jobs`` as reference starts."""
    run = rom_simulation(*columns(jobs, p))
    xs, ys = processes(jobs, p, start_time=start, count=2)
    return [as_starts(s, jobs) for s in (run.x, run.y, xs, ys, processes(jobs, p, count=1)[0])]


@settings(max_examples=400, deadline=None)
@given(schedule_inputs(), st.sampled_from(MUTATIONS), st.integers(0, 7), st.integers(0, 12))
def test_is_normal_matches_reference(case, kind, k, shift):
    jobs, p, start, _ = case
    for entries in schedules(jobs, p, start):
        entries = mutate(entries, jobs, p, kind, k, shift)
        assert normality(is_normal, entries, jobs, p) == normality(
            reference_is_normal, entries, jobs, p)


@settings(max_examples=300, deadline=None)
@given(schedule_inputs(), st.sampled_from(MUTATIONS), st.integers(0, 7), st.integers(0, 12))
def test_a_stopped_run_and_shared_tables_change_nothing(case, kind, k, shift):
    """A lone process stopped at the horizon returns the full run's starts
    before it; ``is_normal`` given ``normal_tables`` gives the verdict it
    gives alone, on every schedule and its mutations."""
    jobs, p, start, horizon = case
    rel, last, _ = columns(jobs, p)
    if horizon is not None:
        (greedy,) = processes(jobs, p, count=1)
        assert run_processes(rel, last, p, range(len(jobs)), count=1, stop=horizon) == (
            [e for e in greedy if e.start < horizon],)
    tables = normal_tables(rel, last)
    for entries in schedules(jobs, p, start):
        entries = mutate(entries, jobs, p, kind, k, shift)
        entries = [Entry(e.job.label, e.start, e.flexible) for e in entries]
        assert is_normal(entries, rel, last, p, tables) == is_normal(entries, rel, last, p)


def test_is_normal_mutations_reach_every_violation():
    """The mutations above reach every violation of ``is_normal``, and both
    implementations agree on each."""
    rng = random.Random(8)
    seen = set()
    for _ in range(400):
        p = rng.choice([1, 2, 10])
        n = rng.randint(1, 7)
        jobs = [J(rng.randint(0, 3 * p), p, rng.choice([0, p, rng.randint(0, 4 * p)]), i)
                for i in range(n)]
        start = rng.choice([0, rng.randint(0, 2 * p)])
        for entries in schedules(jobs, p, start):
            for kind in MUTATIONS:
                m = mutate(entries, jobs, p, kind, rng.randrange(8), rng.randrange(13))
                want = normality(reference_is_normal, m, jobs, p)
                assert normality(is_normal, m, jobs, p) == want
                if want[0]:
                    seen.add("ok")
                else:
                    words = want[1].split()
                    seen.add(" ".join(words[:2]) if words[0] == "idle" else words[0])
    assert seen == {"ok", "entries", "job", "start", "flexible", "idle at", "idle over",
                    "no"}
