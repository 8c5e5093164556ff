"""Workloads of the rombit benchmark: CLI argv lists plus generated inputs.

Inputs are a pure function of (workload, seed, scale).  The program sees
only the argv and, for the row workloads, instance files written here with
``harness.generate_instances``; it runs through ``rombit.cli.main``.

Why these workloads:

* ``stream_mc`` -- the README ``bias`` and ``guess`` commands on long Monte
  Carlo streams.  Time goes to extraction sampling, ``rng_for`` and
  ``guess_run``; no oracle, enumeration or audit runs.
* ``exact_audit`` -- seven ``--exact`` commands at the acceptance sizes,
  audited where the audit checks the algorithm that runs.  Exercises
  ``distinct_orderings``, every per-order algorithm, the three oracles and
  the audit predicates; no random sampling.
* ``sampled_rows`` -- the same harness on larger instances with sampled
  orders.  Oracle cost per order is highest here and nothing is enumerated
  or audited, so an enumeration or audit change should not move it.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field

WORKLOADS = ("stream_mc", "exact_audit", "sampled_rows")
SCALES = ("full", "tiny")

# the instance sizes of the acceptance suite
SIZES = [3, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 8]

# exact reports are checked byte for byte against digests captured on the
# parent commit; exact_audit draws its inputs from this many pinned slots,
# every one of which has captured digests
GOLDEN_SLOTS = 32

STREAM = {
    "full": {"n": 100000, "trials": 50000, "guess_n": 10000, "guess_trials": 100},
    "tiny": {"n": 2000, "trials": 50000, "guess_n": 1000, "guess_trials": 20},
}

# A row workload has ``sets`` disjoint input sets per seed and each pass
# runs the next one, because the oracle cost of an instance varies several
# fold at one size and has a heavy tail: a run's median then covers many
# instances and is not moved by one expensive set.  Instance
# sizes cycle through ``sizes``; an exact command draws instances until
# their distinct arrival orders reach ``orders`` times its share.
EXACT = {
    "full": {"sets": 12, "sizes": SIZES, "orders": 1000},
    "tiny": {"sets": 2, "sizes": [3, 4, 5], "orders": 40},
}

# (instances, sizes) per group; every instance runs ``trials`` sampled orders
SAMPLED = {
    "full": {"sets": 15, "trials": 5, "throughput": (24, [9, 10]),
             "knapsack": (24, [16, 20]), "intervals": (24, [24, 32])},
    "tiny": {"sets": 2, "trials": 5, "throughput": (2, [6, 7]), "knapsack": (2, [8, 9]),
             "intervals": (2, [8, 10])},
}

# name, CLI words, problem, extra generator params, audited, share of orders
EXACT_COMMANDS = (
    ("knapsack_proportional", ["knapsack", "--variant", "proportional"],
     "knapsack_proportional", {}, True, 1),
    ("knapsack_general", ["knapsack", "--variant", "general"], "knapsack_general", {}, True,
     1),
    # the tworbin audit checks A1/A2, not the two-bin algorithm, so it is
    # not counted as evidence of correctness and not run
    ("knapsack_tworbin", ["knapsack", "--variant", "tworbin"], "knapsack_proportional", {},
     False, 2 / 3),
    ("intervals_single", ["intervals", "--variant", "single"], "interval",
     {"variant": "single"}, True, 1),
    ("intervals_monotone", ["intervals", "--variant", "monotone"], "interval",
     {"variant": "monotone"}, True, 1),
    ("intervals_cben", ["intervals", "--variant", "cben"], "interval",
     {"variant": "c_benevolent"}, True, 1),
    # an exact throughput order costs several times any other and varies
    # most between instances; a smaller share keeps it near a fifth of the
    # pass
    ("throughput", ["throughput"], "throughput", {}, True, 1 / 4),
)

# name, CLI words, problem, extra generator params, size group in SAMPLED
SAMPLED_COMMANDS = (
    ("throughput", ["throughput"], "throughput", {}, "throughput"),
    ("knapsack_general", ["knapsack", "--variant", "general"], "knapsack_general", {},
     "knapsack"),
    ("knapsack_proportional", ["knapsack", "--variant", "proportional"],
     "knapsack_proportional", {}, "knapsack"),
    ("intervals_monotone", ["intervals", "--variant", "monotone"], "interval",
     {"variant": "monotone"}, "intervals"),
    ("intervals_cben", ["intervals", "--variant", "cben"], "interval",
     {"variant": "c_benevolent"}, "intervals"),
)


@dataclass
class Command:
    """One CLI invocation and what its output must satisfy."""

    name: str
    argv: list
    kind: str  # "bias", "guess" or "rows"
    orders: int = 0  # arrival orders run through an application per execution
    bias_trials: int = 0
    guess_bits: int = 0
    expected: dict = field(default_factory=dict)
    report: str = None
    golden_key: str = None


def golden_slot(seed):
    return seed % GOLDEN_SLOTS


def distinct_order_count(instance):
    """Distinct arrival orders of an instance's key multiset."""
    counts = Counter(it.key for it in instance.items)
    total = math.factorial(instance.n)
    for c in counts.values():
        total //= math.factorial(c)
    return total


def build(workload, seed, scale, workdir, harness, core):
    """Generate the workload's inputs; returns its input sets, each a list of
    commands.  Pass i of a run executes set i modulo their number."""
    if workload == "stream_mc":
        return [_stream(seed, STREAM[scale])]
    cfg = EXACT[scale] if workload == "exact_audit" else SAMPLED[scale]
    sets = []
    for j in range(cfg["sets"]):
        set_dir = os.path.join(workdir, str(j))
        os.makedirs(set_dir, exist_ok=True)
        set_seed = cfg["sets"] * seed + j
        if workload == "exact_audit":
            sets.append(exact_set(set_seed, scale, set_dir, harness, core))
        else:
            sets.append(_sampled(set_seed, cfg, set_dir, harness, core))
    return sets


def _stream(seed, cfg):
    n, trials = str(cfg["n"]), cfg["trials"]
    bias = (
        ("bias_combine", ["--mode", "combine", "--r", "4142/10000"], 2 - math.sqrt(2)),
        ("bias_p1", ["--mode", "p1", "--alpha", "1/2"], 2 / 3),
        ("bias_p2", ["--mode", "p2"], 1 / 2),
    )
    cmds = [
        Command(
            name=name,
            argv=["bias", *words, "--n", n, "--trials", str(trials), "--seed", str(seed)],
            kind="bias",
            orders=trials,
            bias_trials=trials,
            expected={"constant": constant},
        )
        for name, words, constant in bias
    ]
    gn, gt = cfg["guess_n"], cfg["guess_trials"]
    cmds.append(
        Command(
            name="guess",
            argv=["guess", "--n", str(gn), "--p-one", "0.6", "--trials", str(gt),
                  "--seed", str(seed)],
            kind="guess",
            orders=gt,
            guess_bits=gn * gt,
            expected={"n": gn, "trials": gt},
        )
    )
    return cmds


def _instances(problem, extra, sizes, base_seed, harness, count=None, orders=None):
    """Instances whose sizes cycle through ``sizes``: ``count`` of them, or
    as many as it takes for their distinct orders to reach ``orders``."""
    out, total = [], 0
    while len(out) < count if count is not None else total < orders:
        params = {"n": sizes[len(out) % len(sizes)], "support": 3, **extra}
        inst = harness.generate_instances(problem, "uniform", params, 1,
                                          base_seed + len(out))[0]
        out.append(inst)
        total += distinct_order_count(inst)
    return out


def _rows_command(name, words, problem, instances, workdir, cli_seed, core, exact,
                  audit, trials):
    path = os.path.join(workdir, name + ".jsonl")
    core.write_instances(instances, path)
    report = os.path.join(workdir, name + ".csv")
    argv = [*words, "--instances", path, "--seed", str(cli_seed), "--out", report]
    argv += ["--exact"] if exact else ["--trials", str(trials)]
    if audit:
        argv.append("--audit")
    per_pass = [distinct_order_count(inst) if exact else trials for inst in instances]
    orders = sum(per_pass) * (2 if audit else 1)
    return Command(
        name=name,
        argv=argv,
        kind="rows",
        orders=orders,
        report=report,
        expected={
            "problem": problem,
            "ids": sorted(inst.meta_value("id") for inst in instances),
            "trials": "exact" if exact else str(trials),
            "seed": str(cli_seed),
            "knapsack_instances": len(instances) if problem.startswith("knapsack") else 0,
        },
    )


def _base_seed(seed, k):
    # instance i of command k is generated from seed base + i
    return (len(EXACT_COMMANDS) * seed + k) * 10000


def exact_set(seed, scale, workdir, harness, core):
    """The exact_audit commands on the pinned inputs of ``golden_slot(seed)``."""
    cfg = EXACT[scale]
    slot = golden_slot(seed)
    cmds = []
    for k, (name, words, problem, extra, audit, share) in enumerate(EXACT_COMMANDS):
        base = _base_seed(slot, k)
        instances = _instances(problem, extra, cfg["sizes"], base, harness,
                               orders=cfg["orders"] * share)
        cmd = _rows_command(name, words, problem, instances, workdir, base, core, True,
                            audit, 0)
        cmd.golden_key = f"{scale}/{slot}/{name}"
        cmds.append(cmd)
    return cmds


def _sampled(seed, cfg, workdir, harness, core):
    cmds = []
    for k, (name, words, problem, extra, group) in enumerate(SAMPLED_COMMANDS):
        count, sizes = cfg[group]
        base = _base_seed(seed, k)
        instances = _instances(problem, extra, sizes, base, harness, count=count)
        cmds.append(_rows_command(name, words, problem, instances, workdir, base, core,
                                  False, False, cfg["trials"]))
    return cmds
