"""De-randomized equal-length unweighted throughput scheduling.

Two processes run the same deterministic rule and share one lock: a process
may always start the earliest-deadline pending job when the pending set is
urgent, but a flexible start requires the lock (held until completion), so
the two schedules drift apart.  The ROM algorithm first packs jobs
pseudo-identical to the first arrival with one such process, alone and so
greedy, then at the first distinct (proc, slack) key takes the COMBINE bit
from ``extraction.harvest`` and continues with two from the breakpoint B;
the bit selects which schedule is real.  One simulator, ``run_processes``,
runs both phases.

All times are integers (rescaled rationals).  Each simulation and audit
call reads its jobs once into int lists in earliest-deadline (ED) order,
by deadline and then label, so the ED order of any pending set is that
order filtered and no pending set is sorted.  One pass over a pending set
gives f, the minimum over k of the k-th job's latest start minus k*p:
run back-to-back from t, the set is feasible iff t <= f + p and flexible
iff t < f, which is exact for equal processing times.  ``flexible`` is
taken strictly (feasible from any time before t+p lapses), so a process
woken at the last flexible instant f starts the job as urgent, without
the lock; this keeps every produced schedule normal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from .core import CapacityError
from .extraction import harvest

OPT_GUARD = 10


@dataclass(frozen=True)
class Job:
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


def _table(jobs):
    """A job list in earliest-deadline (ED) order, with its releases, latest
    starts and labels as int lists in that order.

    The order is by deadline, then label; the sort is stable, so jobs tied
    on both keep their list order, and the ED order of any subset is this
    order filtered.
    """
    jobs = sorted(jobs, key=lambda j: (j.deadline, j.label))
    return (
        jobs,
        [j.release for j in jobs],
        [j.release + j.slack for j in jobs],
        [j.label for j in jobs],
    )


def _scan(rel, last, lab, done, lo, hi, p):
    """One pass over the jobs pending throughout [lo, hi] (released by lo,
    latest start at or after hi, label not in ``done``), in ED order.

    Returns the position of the first one (None if none is pending) and
    f = min over k of (latest start of the k-th - k*p).  Run back-to-back
    from t, the k-th job starts at t + (k-1)*p, so the set is feasible from
    t iff t <= f + p, and flexible (still feasible from t+p, taken strictly)
    iff t < f, which for p >= 0 implies feasibility.  A process woken at f
    therefore starts the set as urgent.
    """
    first = f = None
    k = 0
    for i, r in enumerate(rel):
        if r <= lo and last[i] >= hi and lab[i] not in done:
            k += p
            v = last[i] - k
            if first is None:
                first, f = i, v
            elif v < f:
                f = v
    return first, f


class Entry(NamedTuple):
    """One start of a schedule.  A named tuple: a schedule builds one per
    start, and a tuple is built about twice as fast as a frozen dataclass."""

    job: Job
    start: int
    flexible: bool

    @property
    def completion(self):
        return self.start + self.job.proc


def run_processes(jobs, p, start_time=0, count=2):
    """Event-driven simulation of ``count`` lock-sharing processes; returns
    each one's entries.  A lone process always finds the lock free, so it
    is the phase-1 greedy process.

    Decision instants are releases, completions and per-process wake-ups (the
    instant an idle process's pending set stops being flexible); between
    instants nothing changes.  X steps before Y at every instant: an idle
    process with a non-flexible pending set starts the ED job at once,
    ignoring the lock; with a flexible set it starts the ED job only by
    taking the free lock, which it holds until that job completes, and
    otherwise waits.
    """
    jobs, rel, last, lab = _table(jobs)
    releases = sorted(set(rel))
    entries = tuple([] for _ in range(count))
    done = tuple(set() for _ in range(count))
    # per process: (position, start, flexible); a flexible start holds the lock
    running = [None] * count
    lock = None  # the process holding it
    t = start_time
    while True:
        # completions first, releasing the lock
        for k in range(count):
            run = running[k]
            if run is not None and run[1] + p == t:
                i, s, flex = run
                entries[k].append(Entry(jobs[i], s, flex))
                done[k].add(lab[i])
                running[k] = None
                if flex:
                    lock = None
        # each process's step, and its next decision instant; a release
        # changes nothing while every process runs
        wake = []
        idle = False
        for k in range(count):
            if running[k] is None:
                i, f = _scan(rel, last, lab, done[k], t, t, p)
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
class RomRun:
    x: list
    y: list
    chosen: list
    bit: int
    breakpoint: object
    prefix: list      # G, the common greedy prefix
    x_tail: list      # X', the dual continuation
    y_tail: list
    subinstance: list  # J'


def rom_simulation(arrivals, p):
    """Greedy identical phase, breakpoint, then the dual continuation on J'.

    ``arrivals`` are Jobs of processing time ``p`` in arrival order with
    non-decreasing releases from 0 on.  Phase 1 runs on the jobs released
    before r, the distinct arrival's release, since they alone decide every
    start before r.  B is the start of the phase-1 job running across r, or
    r; G is the phase-1 starts before B.  The continuation runs from B on
    the subinstance J' (unfinished jobs pseudo-identical to the first
    arrival re-released at B, plus everything releasing later); per the
    decomposition X = G u X', Y = G u Y'.  At most one job is ever dropped
    mid-run: the one Y abandons at B when the breakpoint set is flexible.
    """
    bit, distinct_ix = harvest((j.proc, j.slack) for j in arrivals)
    if distinct_ix is None:
        (entries,) = run_processes(arrivals, p, count=1)
        return RomRun(
            x=entries, y=entries, chosen=entries, bit=None, breakpoint=None,
            prefix=entries, x_tail=[], y_tail=[], subinstance=[],
        )
    r = arrivals[distinct_ix].release
    (greedy,) = run_processes([j for j in arrivals if j.release < r], p, count=1)
    bpoint = next((e.start for e in greedy if e.start < r < e.completion), r)
    prefix = [e for e in greedy if e.start < bpoint]
    done = {e.job.label for e in prefix}
    sub = []
    for j in arrivals:
        if j.label in done:
            continue
        new_release = max(j.release, bpoint)
        if j.expiry < new_release:
            continue  # already unschedulable for every continuation
        if new_release != j.release or j.proc != p:
            # re-released at B; a job released from B on enters as it is
            j = Job(new_release, p, j.expiry - new_release, j.label)
        sub.append(j)
    x_tail, y_tail = run_processes(sub, p, bpoint, count=2)
    x = prefix + x_tail
    y = prefix + y_tail
    return RomRun(
        x=x, y=y, chosen=(x if bit == 1 else y), bit=bit, breakpoint=bpoint,
        prefix=prefix, x_tail=x_tail, y_tail=y_tail, subinstance=sub,
    )


# ---------------------------------------------------------------------------
# normality audit
# ---------------------------------------------------------------------------


def is_normal(entries, jobs, p):
    """Replay a schedule against its instance; returns (ok, first_violation).

    Normal means every start picks the earliest-deadline pending job, and the
    machine is never idle over an interval of positive length on which the
    pending set is not flexible.  The checks run in this order and the first
    failure is reported: overlapping entries; each start in time order
    (its window, the ED job, the flexible flag); each idle release or
    latest-start instant from time 0 on; each idle gap from time 0 up to the
    last latest start, cut at the releases and latest starts inside it.  Every
    pending set is a filter of the one ED order of ``jobs``, classified by
    one ``_scan``.  An entry that starts while no job is pending (a job
    started twice, or one not in ``jobs``) is a violation.
    """
    entries = sorted(entries, key=lambda e: e.start)
    starts = [e.start for e in entries]
    comps = [e.completion for e in entries]
    labels = [e.job.label for e in entries]
    m = len(entries)
    for k in range(1, m):
        if comps[k - 1] > starts[k]:
            return False, f"entries overlap at {starts[k]}"
    jobs, rel, last, lab = _table(jobs)
    done = set()
    for job, s, flexible in entries:
        if s < job.release or s > job.expiry:
            return False, f"job {job.label} started outside its window"
        i, f = _scan(rel, last, lab, done, s, s, p)
        if i is None:
            return False, f"no job is pending at {s}"
        ed = jobs[i]
        if ed is not job and (ed.deadline, ed.label) != (job.deadline, job.label):
            return False, f"start at {s} is not the ED pending job"
        if (s < f) != flexible:
            return False, f"flexible flag mismatch at {s}"
        done.add(job.label)

    # no idle instant may have a non-flexible pending set.  The entries are
    # disjoint now and processing times positive, so start order is
    # completion order: the jobs done by tau are a prefix of the entries,
    # and only the next entry can be running at tau.
    points = sorted(set(rel) | set(last))
    done = set()
    k = 0
    for tau in points[bisect_left(points, 0):]:
        while k < m and comps[k] <= tau:
            done.add(labels[k])
            k += 1
        if k < m and starts[k] <= tau:
            continue  # entry k runs at tau
        i, f = _scan(rel, last, lab, done, tau, tau, p)
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
            i, f = _scan(rel, last, lab, done, u, v, p)
            if i is not None and v > f:
                return False, f"idle over [{u},{v}) with a non-flexible pending set"
            u = v
    return True, None


# ---------------------------------------------------------------------------
# offline oracle
# ---------------------------------------------------------------------------


def offline_opt_throughput(jobs, p):
    """Exact maximum number of completable jobs.

    Depth-first search over which job starts next, each start shifted left
    to max(current time, release), memoized on a canonical (time, live set)
    state.  The live set drops every job whose latest start is before the
    time, and the time then advances to the earliest live release.  Both
    steps are exact: time only moves forward, so a dropped job can never
    start again, and no live job can start before that release, so each
    start is the same from either time.  States that differ only by dead
    jobs or an idle gap thus share one memo entry.  Jobs are tried in
    latest-start order, and a state stops once every live job is counted.
    A job whose latest start precedes its release is never live.
    """
    if len(jobs) > OPT_GUARD:
        raise CapacityError(f"n={len(jobs)} exceeds oracle guard {OPT_GUARD}")
    jobs = sorted(jobs, key=lambda j: j.release + j.slack)
    n = len(jobs)
    rel = [j.release for j in jobs]
    last = [j.release + j.slack for j in jobs]
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
        for i in range(k, n):
            if not live >> i & 1:
                continue
            # t <= last[i] and rel[i] <= last[i], so every live job can start
            s = t if t > rel[i] else rel[i]
            v = 1 + rec(s + p, live ^ (1 << i))
            if v > best:
                best = v
                if best == cap:
                    break
        memo[key] = best
        return best

    valid = sum(1 << i for i in range(n) if last[i] >= rel[i])
    return rec(min(rel, default=0), valid)
