"""Correctness gate: one verdict per executed command.

A command fails if it raised, exited nonzero, reported violations, wrote an
exact report whose bytes differ from the digest captured on the parent
commit, or printed a Monte Carlo result outside the acceptance tolerances.
Monte Carlo output is checked by tolerance, not by digest, so a change of
sample stream stays possible.
"""

from __future__ import annotations

import hashlib
import math
import re
from fractions import Fraction

# |empirical - predicted| for every bias mode, as in acceptance C1
BIAS_TOL = 0.01
# the printed prediction must be the mode's worst-case constant
CONSTANT_TOL = 1e-5
# acceptance C4d bound on the string guessing ratio OPT/E[ALG]
GUESS_RATIO_MAX = 2.41 + 0.05

REPORT_HEADER = "instance_id,problem,model,trials,seed,mean_alg,opt,empirical_ratio,stderr"
REALTIME_PROBLEMS = ("interval", "throughput")

_FIELD = re.compile(r"(\w+)=(\S+)")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def fields(line):
    return dict(_FIELD.findall(line))


def check(cmd, rc, stdout, report, golden):
    """Problems found in one command's outcome; empty means it passed.

    ``report`` is the bytes of the report file, or None if none was written.
    ``golden`` maps golden keys to report digests; None skips the digest.
    """
    if rc != 0:
        return [f"exit status {rc!r}"]
    try:
        if cmd.kind == "bias":
            return _check_bias(cmd, stdout)
        if cmd.kind == "guess":
            return _check_guess(cmd, stdout)
        return _check_rows(cmd, stdout, report, golden)
    except (KeyError, ValueError, ZeroDivisionError) as e:
        return [f"unparsable output: {e!r}"]


def _check_bias(cmd, stdout):
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        return [f"expected one bias line, got {len(lines)}"]
    f = fields(lines[0])
    predicted, empirical = float(f["predicted"]), float(f["empirical"])
    problems = []
    if abs(predicted - cmd.expected["constant"]) > CONSTANT_TOL:
        problems.append(f"predicted={predicted} is not {cmd.expected['constant']:.6f}")
    if not abs(empirical - predicted) <= BIAS_TOL:
        problems.append(f"empirical={empirical} further than {BIAS_TOL} from {predicted}")
    return problems


def _check_guess(cmd, stdout):
    f = fields(stdout)
    n, trials = int(f["n"]), int(f["trials"])
    mean, ratio = float(f["mean_correct"]), float(f["ratio"])
    problems = []
    if (n, trials) != (cmd.expected["n"], cmd.expected["trials"]):
        problems.append(f"ran n={n} trials={trials}")
    if not 0 < mean <= n:
        problems.append(f"mean_correct={mean} outside (0, n]")
    if not 1 <= ratio <= GUESS_RATIO_MAX:
        problems.append(f"ratio={ratio} outside [1, {GUESS_RATIO_MAX}]")
    return problems


def _check_rows(cmd, stdout, report, golden):
    exp = cmd.expected
    summary = fields(stdout.strip().splitlines()[-1])
    problems = []
    if int(summary["violations"]) != 0:
        problems.append(f"violations={summary['violations']}")
    if int(summary["instances"]) != len(exp["ids"]):
        problems.append(f"instances={summary['instances']}, expected {len(exp['ids'])}")
    if report is None:
        return problems + ["no report written"]
    if exp["trials"] == "exact" and golden is not None:
        want = golden.get(cmd.golden_key)
        if want is None:
            problems.append(f"no golden digest for {cmd.golden_key}")
        elif digest(report) != want:
            problems.append(f"report digest differs from golden {cmd.golden_key}")
    lines = report.decode("utf-8").splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        return problems + ["report header differs"]
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != exp["ids"]:
        problems.append("report instance ids differ from the input")
    model = "realtime_rom" if exp["problem"] in REALTIME_PROBLEMS else "rom"
    for r in rows:
        problems += _check_row(r, exp, model)
    return problems


def _check_row(r, exp, model):
    iid, problem, row_model, trials, seed, mean_alg, opt, ratio, stderr = r
    mean_alg, opt, ratio = Fraction(mean_alg), Fraction(opt), Fraction(ratio)
    bad = []
    if (problem, row_model, trials, seed) != (exp["problem"], model, exp["trials"], exp["seed"]):
        bad.append(f"{iid}: columns {problem},{row_model},{trials},{seed}")
    if exp["trials"] == "exact":
        if stderr != "":
            bad.append(f"{iid}: exact row has stderr {stderr}")
    elif not (math.isfinite(float(stderr)) and float(stderr) >= 0):
        bad.append(f"{iid}: stderr {stderr}")
    # ALG can be 0 on an order (the chosen branch may be empty), so only
    # 0 <= E[ALG] <= OPT holds per row; the harness reports ratio 0 when
    # E[ALG] is 0 for the OPT/E[ALG] problems
    if not 0 <= mean_alg <= opt:
        bad.append(f"{iid}: mean_alg={mean_alg} outside [0, opt={opt}]")
    if problem.startswith("knapsack"):
        if not (0 <= ratio <= 1 and ratio == mean_alg / opt):
            bad.append(f"{iid}: E[ALG]/OPT={ratio} wrong or outside [0, 1]")
    elif problem == "interval":
        if ratio != (opt / mean_alg if mean_alg else 0):
            bad.append(f"{iid}: OPT/E[ALG]={ratio} is not {opt}/{mean_alg}")
    elif not (ratio >= 1 or (ratio >= 0 and mean_alg < opt)):
        bad.append(f"{iid}: mean |OPT|/|ALG|={ratio} below 1 with E[ALG]=OPT")
    return bad
