"""De-randomized equal-length unweighted throughput scheduling.

Two processes run the same deterministic rule and share one lock: a process
may always start the earliest-deadline pending job when the pending set is
urgent, but a flexible start requires the lock (held until completion), so
the two schedules drift apart.  The ROM algorithm first packs jobs
pseudo-identical to the first arrival with one such process, alone and so
greedy, then at the first distinct slack takes the COMBINE bit from
``extraction.harvest`` and continues with two from the breakpoint B; the
bit selects which schedule is real: the run is an ``extraction.Run`` whose
``one`` is |X| and ``zero`` is |Y|.  One simulator, ``run_processes``,
runs both phases.

An instance is two int columns and one int: ``rel[i]`` and ``last[i]``,
the release and latest start of arrival i, and the common processing time
``p``, so arrival i's deadline is ``last[i] + p``.  All times are integers
(rescaled rationals), and a schedule names each job by its arrival index.
Each simulation and audit call sorts the indices it may start once into
earliest-deadline (ED) order, by latest start and then index, so the ED
order of any pending set is that order filtered and no pending set is
sorted.  One pass over a pending set gives f, the minimum over k of the
k-th job's latest start minus k*p: run back-to-back from t, the set is
feasible iff t <= f + p and flexible iff t < f, which is exact for equal
processing times.  ``flexible`` is taken strictly (feasible from any time
before t+p lapses), so a process woken at the last flexible instant f
starts the job as urgent, without the lock; this keeps every produced
schedule normal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .core import CapacityError
from .extraction import Run, harvest

OPT_GUARD = 10


def _table(rel, last, live):
    """The arrival indices ``live`` in earliest-deadline (ED) order: by
    latest start, which with one processing time is by deadline, then by
    index.  The ED order of any subset is this order filtered."""
    return sorted(live, key=lambda i: (last[i], i))


def _scan(ed, rel, last, done, lo, hi, p):
    """One pass over the jobs pending throughout [lo, hi] (released by lo,
    latest start at or after hi, index not in ``done``), in the ED order
    ``ed``.

    Returns the index of the first one (None if none is pending) and
    f = min over k of (latest start of the k-th - k*p).  Run back-to-back
    from t, the k-th job starts at t + (k-1)*p, so the set is feasible from
    t iff t <= f + p, and flexible (still feasible from t+p, taken strictly)
    iff t < f, which for p >= 0 implies feasibility.  A process woken at f
    therefore starts the set as urgent.
    """
    first = f = None
    k = 0
    for i in ed:
        if rel[i] <= lo and last[i] >= hi and i not in done:
            k += p
            v = last[i] - k
            if first is None:
                first, f = i, v
            elif v < f:
                f = v
    return first, f


class Entry(NamedTuple):
    """One start of a schedule: the arrival index of the job, its start
    time and whether the set it was started from was flexible.  A named
    tuple: a schedule builds one per start, and a tuple is built about
    twice as fast as a frozen dataclass."""

    index: int
    start: int
    flexible: bool


def run_processes(rel, last, p, live, start_time=0, count=2, stop=float("inf")):
    """Event-driven simulation of ``count`` lock-sharing processes that may
    start the arrivals ``live``; returns each one's entries done by the first
    decision instant at or after ``stop``.  A lone process always finds the
    lock free, so it is greedy, and those are all its starts before ``stop``.

    Decision instants are releases, completions and per-process wake-ups (the
    instant an idle process's pending set stops being flexible); between
    instants nothing changes.  X steps before Y at every instant: an idle
    process with a non-flexible pending set starts the ED job at once,
    ignoring the lock; with a flexible set it starts the ED job only by
    taking the free lock, which it holds until that job completes, and
    otherwise waits.
    """
    ed = _table(rel, last, live)
    releases = sorted({rel[i] for i in ed})
    entries = tuple([[] for _ in range(count)])
    done = tuple([set() for _ in range(count)])
    # per process: (index, start, flexible); a flexible start holds the lock
    running = [None] * count
    lock = None  # the process holding it
    t = start_time
    while True:
        # completions first, releasing the lock
        for k in range(count):
            run = running[k]
            if run is not None and run[1] + p == t:
                i, s, flex = run
                entries[k].append(Entry(i, s, flex))
                done[k].add(i)
                running[k] = None
                if flex:
                    lock = None
        if t >= stop:
            break
        # each process's step, and its next decision instant; a release
        # changes nothing while every process runs
        wake = []
        idle = False
        for k in range(count):
            if running[k] is None:
                i, f = _scan(ed, rel, last, done[k], t, t, p)
                flex = i is not None and t < f
                if i is None or (flex and lock is not None):
                    # nothing pending, or waiting for the lock until f
                    idle = True
                    if flex:
                        wake.append(f)
                    continue
                running[k] = (i, t, flex)
                if flex:
                    lock = k
            wake.append(running[k][1] + p)
        if idle:
            r = bisect_right(releases, t)
            wake += releases[r:r + 1]
        wake = [c for c in wake if c > t]
        if not wake:
            break
        t = min(wake)
    return entries


@dataclass
class RomRun(Run):
    x: list  # bit 1's schedule; with no bit, X and Y are one schedule
    y: list
    breakpoint: object
    prefix: list  # G, the common greedy prefix


def rom_simulation(rel, last, p):
    """Greedy identical phase, breakpoint, then the dual continuation.

    The arrivals have releases ``rel``, non-decreasing from 0 on, latest
    starts ``last`` and processing time ``p``.  Phase 1 runs on the jobs
    released before r, the distinct arrival's release, since they alone
    decide every start before r, and it stops at r.  B is the start of the
    phase-1 job running across r, or r; G is the phase-1 starts before B.
    The continuation runs both processes from B on every job not in G, so
    X = G u X' and Y = G u Y'.  It needs no re-released subinstance: a
    job's deadline does not move when it is re-released at B, at every
    instant from B on it is released either way, and a job whose latest
    start has passed is never pending.  At most one job is ever dropped
    mid-run: the one Y abandons at B when the breakpoint set is flexible.
    """
    n = len(rel)
    bit, distinct_ix = harvest(s - r for r, s in zip(rel, last))
    if distinct_ix is None:
        (entries,) = run_processes(rel, last, p, range(n), count=1)
        return RomRun(None, len(entries), len(entries), x=entries, y=entries,
                      breakpoint=None, prefix=entries)
    r = rel[distinct_ix]
    (greedy,) = run_processes(rel, last, p, [k for k in range(n) if rel[k] < r], count=1, stop=r)
    bpoint = next((e.start for e in greedy if e.start < r < e.start + p), r)
    prefix = [e for e in greedy if e.start < bpoint]
    done = {e.index for e in prefix}
    x_tail, y_tail = run_processes(rel, last, p, [k for k in range(n) if k not in done],
                                   bpoint)
    x = prefix + x_tail
    y = prefix + y_tail
    return RomRun(bit, len(x), len(y), x=x, y=y, breakpoint=bpoint, prefix=prefix)


# ---------------------------------------------------------------------------
# normality audit
# ---------------------------------------------------------------------------


def normal_tables(rel, last):
    """The ED order of every arrival and the sorted release and latest-start
    points: what every ``is_normal`` replay on one instance reads."""
    return _table(rel, last, range(len(rel))), sorted(set(rel) | set(last))


def is_normal(entries, rel, last, p, tables=None):
    """Replay a schedule against its instance; returns (ok, first_violation).

    Normal means every start picks the earliest-deadline pending job, and the
    machine is never idle over an interval of positive length on which the
    pending set is not flexible.  The checks run in this order and the first
    failure is reported: overlapping entries; each start in time order
    (its window, the ED job, the flexible flag); each idle release or
    latest-start instant from time 0 on; each idle gap from time 0 up to the
    last latest start, cut at the releases and latest starts inside it.  Every
    pending set is a filter of the one ED order of the instance, classified
    by one ``_scan``.  An entry that starts while no job is pending (a job
    started twice) is a violation.  ``tables`` default to ``normal_tables``.
    """
    entries = sorted(entries, key=lambda e: e.start)
    starts = [e.start for e in entries]
    comps = [s + p for s in starts]
    labels = [e.index for e in entries]
    m = len(entries)
    for k in range(1, m):
        if comps[k - 1] > starts[k]:
            return False, f"entries overlap at {starts[k]}"
    ed, points = tables or normal_tables(rel, last)
    done = set()
    for i, s, flexible in entries:
        if s < rel[i] or s > last[i]:
            return False, f"job {i} started outside its window"
        first, f = _scan(ed, rel, last, done, s, s, p)
        if first is None:
            return False, f"no job is pending at {s}"
        if first != i:
            return False, f"start at {s} is not the ED pending job"
        if (s < f) != flexible:
            return False, f"flexible flag mismatch at {s}"
        done.add(i)

    # no idle instant may have a non-flexible pending set.  The entries are
    # disjoint now and processing times positive, so start order is
    # completion order: the jobs done by tau are a prefix of the entries,
    # and only the next entry can be running at tau.
    done = set()
    k = 0
    for tau in points[bisect_left(points, 0):]:
        while k < m and comps[k] <= tau:
            done.add(labels[k])
            k += 1
        if k < m and starts[k] <= tau:
            continue  # entry k runs at tau
        i, f = _scan(ed, rel, last, done, tau, tau, p)
        if i is not None and tau >= f:
            return False, f"idle at {tau} with a non-flexible pending set"

    # idle intervals must be flexible throughout; the first k entries are
    # done in the gap before entry k, and between consecutive cuts the
    # pending set is fixed
    horizon = max(last, default=0)
    gaps = []
    cur = 0
    for k in range(m):
        if starts[k] > cur:
            gaps.append((cur, starts[k], k))
        cur = max(cur, comps[k])
    if horizon > cur:
        gaps.append((cur, horizon, m))
    for u, hi, k in gaps:
        done = set(labels[:k])
        for v in points[bisect_right(points, u):bisect_left(points, hi)] + [hi]:
            i, f = _scan(ed, rel, last, done, u, v, p)
            if i is not None and v > f:
                return False, f"idle over [{u},{v}) with a non-flexible pending set"
            u = v
    return True, None


# ---------------------------------------------------------------------------
# offline oracle
# ---------------------------------------------------------------------------


def offline_opt_throughput(rel, last, p):
    """Exact maximum number of completable jobs.

    Depth-first search over which job starts next, each start shifted left
    to max(current time, release), memoized on a canonical (time, live set)
    state.  The live set drops every job whose latest start is before the
    time, and the time then advances to the earliest live release.  Both
    steps are exact: time only moves forward, so a dropped job can never
    start again, and no live job can start before that release, so each
    start is the same from either time.  States that differ only by dead
    jobs or an idle gap thus share one memo entry.  Jobs are tried in
    earliest-deadline (ED) order, by latest start and then index, and a
    state stops once every live job is counted.  A job whose latest start
    precedes its release is never live.

    A job e is tried at s = max(t, rel[e]) only if every live job before it
    in ED order is released after s.  This loses no optimum, because all
    jobs have the same length p.  Take a best schedule from the state whose
    first start is e at s while a more urgent live job j is released by s.
    If last[j] < s, the schedule cannot run j after e, so run j instead of
    e.  Otherwise j is available at s: if the schedule never runs j, run j
    in e's slot, and if it runs j later, at s', swap the two, so that e
    starts at s', inside its window since rel[e] <= s < s' <= last[j] <=
    last[e].  Each exchange keeps the count and every later start, and the
    new first job can start at max(t, its release), which is no later than
    s.  Each moves the first job strictly earlier in ED order, so the
    exchanges end at a first job that the rule tries.
    """
    n = len(rel)
    if n > OPT_GUARD:
        raise CapacityError(f"n={n} exceeds oracle guard {OPT_GUARD}")
    by_last = sorted(range(n), key=last.__getitem__)
    rel = [rel[i] for i in by_last]
    last = [last[i] for i in by_last]
    by_release = sorted(range(n), key=rel.__getitem__)
    memo = {}

    def rec(t, live):
        # dead jobs are a prefix of the latest-start order
        k = bisect_left(last, t)
        live = live >> k << k
        if not live:
            return 0
        for i in by_release:
            if live >> i & 1:
                if rel[i] > t:
                    t = rel[i]
                break
        key = (t, live)
        best = memo.get(key)
        if best is not None:
            return best
        best = 0
        cap = live.bit_count()
        soonest = last[-1] + 1  # the earliest release of the live jobs before i
        for i in range(k, n):
            if not live >> i & 1:
                continue
            # t <= last[i] and rel[i] <= last[i], so every live job can start
            r = rel[i]
            s = t if t > r else r
            if s < soonest:  # no more urgent live job is released by s
                v = 1 + rec(s + p, live ^ (1 << i))
                if v > best:
                    best = v
                    if best == cap:
                        break
            if r < soonest:
                soonest = r
        memo[key] = best
        return best

    valid = sum(1 << i for i in range(n) if last[i] >= rel[i])
    return rec(min(rel, default=0), valid)
