"""De-randomized equal-length unweighted throughput scheduling.

Two processes run the same deterministic rule and share one lock: a process
may always start the earliest-deadline pending job when the pending set is
urgent, but a flexible start requires the lock (held until completion), so
the two schedules drift apart.  The ROM algorithm first packs jobs
pseudo-identical to the first arrival with a single greedy process, then at
the first distinct (proc, slack) key takes the COMBINE bit from
``extraction.harvest`` and continues with the dual processes from the
breakpoint B; the bit selects which schedule is real.

All times are integers (rescaled rationals).  A pending set is classified
by back-to-back earliest-deadline simulation, which is exact for equal
processing times.  ``flexible`` is taken strictly (feasible from any time
before t+p lapses), so a process woken at the last flexible instant starts
the job as urgent, without the lock; this keeps every produced schedule
normal.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .core import CapacityError, InputError
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


def ed_order(jobs):
    return sorted(jobs, key=lambda j: (j.deadline, j.label))


def feasible_from(jobs, t, p):
    """Can every job start by its expiry when run back-to-back from t?"""
    cur = t
    for j in ed_order(jobs):
        if cur > j.expiry:
            return False
        cur += p
    return True


def flip_time(jobs, p):
    """Last instant at which the set is still flexible (strictly before it)."""
    best = None
    for k, j in enumerate(ed_order(jobs), start=1):
        v = j.expiry - k * p
        if best is None or v < best:
            best = v
    return best


def classify(jobs, t, p):
    """'infeasible', 'urgent' or 'flexible' for a pending set at time t.

    Empty sets are flexible (vacuously feasible).  The flexible boundary is
    strict: at the last instant where waiting p still works, the set counts
    as urgent, so a locked-out process starts it right there.
    """
    jobs = list(jobs)
    if not jobs:
        return "flexible"
    if not feasible_from(jobs, t, p):
        return "infeasible"
    if t < flip_time(jobs, p):
        return "flexible"
    return "urgent"


@dataclass(frozen=True)
class Entry:
    job: Job
    start: int
    flexible: bool

    @property
    def completion(self):
        return self.start + self.job.proc


class _Process:
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


def process_step(proc, jobs, t, p, lock):
    """One decision for an idle process; returns the new lock holder.

    Exactly the three-branch rule: a non-flexible pending set starts the ED
    job immediately (ignoring the lock); a flexible set starts the ED job
    only when the lock is free, acquiring it; otherwise do nothing.
    """
    q = proc.pending(jobs, t)
    if not q:
        return lock
    cls = classify(q, t, p)
    ed = ed_order(q)[0]
    if cls != "flexible":
        proc.running = (ed, t, False, False)
        return lock
    if lock is None:
        proc.running = (ed, t, True, True)
        return proc.name
    return lock


def dual_run(jobs, p, start_time=0):
    """Event-driven simulation of both lock-sharing processes.

    Decision instants are releases, completions and per-process wake-ups (the
    instant an idle process's pending set stops being flexible); between
    instants nothing changes.  X steps before Y at every instant.
    """
    x = _Process("X")
    y = _Process("Y")
    lock = None
    releases = sorted({j.release for j in jobs if j.release >= start_time})
    t = start_time
    while True:
        # completions first, releasing the lock
        for proc in (x, y):
            if proc.running is not None:
                job, s, holds, flex = proc.running
                if s + p == t:
                    proc.entries.append(Entry(job=job, start=s, flexible=flex))
                    proc.completed.add(job.label)
                    proc.running = None
                    if holds:
                        lock = None
        for proc in (x, y):
            if proc.running is None:
                lock = process_step(proc, jobs, t, p, lock)
        # next decision instant
        candidates = []
        for proc in (x, y):
            if proc.running is not None:
                candidates.append(proc.running[1] + p)
            else:
                q = proc.pending(jobs, t)
                if q and classify(q, t, p) == "flexible":
                    candidates.append(flip_time(q, p))
        for r in releases:
            if r > t:
                candidates.append(r)
                break
        candidates = [c for c in candidates if c > t]
        if not candidates:
            break
        t = min(candidates)
    return x.entries, y.entries


def single_greedy_run(jobs, p, horizon=None):
    """Phase-1 process: run the ED pending job whenever idle, idle only on
    an empty pending set.  Stops at ``horizon`` and reports the entry still
    running there, if any."""
    proc = _Process("S")
    releases = sorted({j.release for j in jobs})
    t = releases[0] if releases else 0
    if horizon is not None and t > horizon:
        t = horizon
    while horizon is None or t < horizon:
        if proc.running is not None:
            job, s, holds, flex = proc.running
            if s + p == t:
                proc.entries.append(Entry(job=job, start=s, flexible=flex))
                proc.completed.add(job.label)
                proc.running = None
        if proc.running is None:
            q = proc.pending(jobs, t)
            if q:
                cls = classify(q, t, p)
                ed = ed_order(q)[0]
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
            proc.entries.append(Entry(job=job, start=s, flexible=flex))
            proc.completed.add(job.label)
        else:
            running = (job, s, flex)
    return proc.entries, running


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

    ``arrivals`` are Jobs in arrival order with non-decreasing releases.  The
    continuation runs from B on the subinstance J' (unfinished jobs
    pseudo-identical to the first arrival re-released at B, plus everything
    releasing later); per the decomposition X = G u X', Y = G u Y'.  At most
    one job is ever dropped mid-run: the one Y abandons at B when the
    breakpoint set is flexible.
    """
    if any(j.proc != arrivals[0].proc for j in arrivals):
        raise InputError("throughput instance requires equal processing times")
    bit, distinct_ix = harvest((j.proc, j.slack) for j in arrivals)
    if distinct_ix is None:
        entries, _ = single_greedy_run(arrivals, p, horizon=None)
        return RomRun(
            x=entries, y=entries, chosen=entries, bit=None, breakpoint=None,
            prefix=entries, x_tail=[], y_tail=[], subinstance=[],
        )
    r = arrivals[distinct_ix].release
    early = [j for j in arrivals if j.release < r]
    entries, running = single_greedy_run(early, p, horizon=r)
    if running is not None:
        bpoint = running[1]
    else:
        bpoint = r
    prefix = [e for e in entries if e.start < bpoint]
    done = {e.job.label for e in prefix}
    sub = []
    for j in arrivals:
        if j.label in done:
            continue
        new_release = max(j.release, bpoint)
        if j.expiry < new_release:
            continue  # already unschedulable for every continuation
        sub.append(Job(release=new_release, proc=p, slack=j.expiry - new_release,
                       label=j.label))
    x_tail, y_tail = dual_run(sub, p, start_time=bpoint)
    x = prefix + x_tail
    y = prefix + y_tail
    return RomRun(
        x=x, y=y, chosen=(x if bit == 1 else y), bit=bit, breakpoint=bpoint,
        prefix=prefix, x_tail=x_tail, y_tail=y_tail, subinstance=sub,
    )


# ---------------------------------------------------------------------------
# normality audit
# ---------------------------------------------------------------------------


def is_normal(entries, jobs, p, start_time=0, end_time=None):
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
        ed = ed_order(pending)[0]
        if (ed.deadline, ed.label) != (e.job.deadline, e.job.label):
            return False, f"start at {e.start} is not the ED pending job"
        flex = classify(pending, e.start, p) == "flexible"
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
        if pending and classify(pending, tau, p) != "flexible":
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
            ft = flip_time(pending, p)
            if v > ft:
                return False, f"idle over [{u},{v}) with a non-flexible pending set"
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
