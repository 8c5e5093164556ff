"""Command-line front end: rombit {bias,guess,knapsack,intervals,throughput,gen,report}.

Exit status: 0 when the run succeeded, 1 when an audit found a violation
(each is printed to stderr), 2 when the input was bad (one ``error:`` line).
``--audit`` requires ``--exact``: it checks every arrival order.  The row
commands knapsack, intervals and throughput are one handler over ``RUNS``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import extraction, guessing, harness
from .core import (
    CapacityError,
    InputError,
    ParseError,
    format_number,
    is_int_pair,
    read_instances,
    to_fraction,
    write_instances,
    write_report,
)


def rational(text):
    """argparse type of --alpha and --r: an int, decimal or num/den as a Fraction."""
    if "/" in text:
        num, den = text.split("/", 1)
        if int(den) == 0:  # a ValueError, so argparse rejects it as bad input
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(text)


def _print_or_write(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_bias(args):
    mode = {"p1": "process1", "p2": "distinct_unbiased", "combine": "combine"}[args.mode]
    param = {"process1": args.alpha, "combine": args.r}.get(mode, Fraction(1, 2))
    if args.exact:
        rep = extraction.exact_bias(extraction.bias_family(mode, param, args.n)[1], mode)
        lines = [f"mode={mode} n={rep.n_items} exact prob_one={format_number(rep.prob_one)} "
                 f"no_bit={rep.no_bit}"]
    else:
        rows = extraction.bias_curve(mode, [param], args.n, args.trials, args.seed)
        lines = [_curve_line(mode, row) for row in rows]
    _print_or_write("\n".join(lines) + "\n", args.out)
    return 0


def _curve_line(mode, row):
    return (
        f"mode={mode} parameter={format_number(row['parameter'])} "
        f"predicted={float(row['predicted']):.6f} empirical={row['empirical']:.6f} "
        f"stderr={row['stderr']:.6f}"
    )


def _cmd_guess(args):
    res = guessing.empirical_ratio(args.n, args.p_one, args.trials, args.seed)
    text = (
        f"n={res['n']} trials={res['trials']} mean_correct={res['mean_correct']:.3f} "
        f"ratio={res['ratio']:.4f}\n"
    )
    _print_or_write(text, args.out)
    return 0


def _params(text):
    """The --params JSON object as a dict ({} when absent)."""
    if not text:
        return {}
    try:
        params = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"--params is not valid JSON: {e.msg}") from None
    if not isinstance(params, dict):
        raise InputError("--params must be a JSON object")
    return params


def _load_or_generate(args, problem, variant):
    if args.instances:
        insts = read_instances(args.instances)
        bad = [i.problem for i in insts if i.problem != problem]
        if bad:
            raise ParseError(f"instance problem {bad[0]!r} does not match {problem!r}")
        default = harness.DEFAULT_INTERVAL_VARIANT
        bad = [v for v in (i.meta_value("variant", default) for i in insts) if v != variant]
        if variant and bad:
            raise ParseError(f"instance variant {bad[0]!r} does not match {variant!r}")
        return insts
    params = _params(args.params)
    if variant and params.setdefault("variant", variant) != variant:
        raise InputError(f"--params variant {params['variant']!r} does not match {variant!r}")
    harness.check_size(problem, args.family, params, args.exact)
    return harness.generate_instances(
        problem, args.family, params, args.count, args.seed
    )


# (subcommand, --variant) -> (problem, algorithm variant, instance variant);
# a subcommand's first row gives its default --variant
RUNS = {
    ("knapsack", "proportional"): ("knapsack_proportional", None, None),
    ("knapsack", "general"): ("knapsack_general", None, None),
    ("knapsack", "tworbin"): ("knapsack_proportional", "tworbin", None),
    ("intervals", "single"): ("interval", None, "single"),
    ("intervals", "monotone"): ("interval", None, "monotone"),
    ("intervals", "cben"): ("interval", None, "c_benevolent"),
    ("throughput", None): ("throughput", None, None),
}


def _cmd_run(args):
    problem, variant, instance_variant = RUNS[args.command, args.variant]
    instances = _load_or_generate(args, problem, instance_variant)
    config = harness.ExperimentConfig(
        problem=problem,
        instances=instances,
        variant=variant,
        exact=args.exact,
        trials=args.trials,
        seed=args.seed,
        audit=args.audit,
    )
    report = harness.run_experiment(config)
    if args.out:
        harness.report_to_file(report, args.out, args.format)
    summary = (
        f"instances={len(report.rows)} worst_ratio={float(report.worst_ratio):.4f} "
        f"mean_ratio={report.mean_ratio:.4f} violations={report.violation_count}\n"
    )
    sys.stdout.write(summary)
    if report.violation_count:
        for row in report.rows:
            for v in row["violations"]:
                sys.stderr.write(f"{row['instance_id']}: {v}\n")
        return 1
    return 0


def _cmd_gen(args):
    instances = harness.generate_instances(
        args.problem, args.family, _params(args.params), args.count, args.seed
    )
    write_instances(instances, args.out)
    sys.stdout.write(f"wrote {len(instances)} instances to {args.out}\n")
    return 0


def _report_row(text, line):
    """One JSON-lines report row, with its ``[num, den]`` cells as Fractions."""
    try:
        row = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=line) from None
    if not isinstance(row, dict):
        raise ParseError("a report line must be a JSON object", line=line)
    try:
        return {k: to_fraction(v) if is_int_pair(v) else v for k, v in row.items()}
    except InputError as e:
        raise ParseError(str(e), line=line) from None


def _cmd_report(args):
    rows = []
    with open(args.input, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                rows.append(_report_row(line, lineno))
    write_report(rows, args.out, args.format)
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 0


@functools.cache
def build_parser():
    """The ``rombit`` argument parser, built once per process; parsing keeps
    no state between calls."""
    ap = argparse.ArgumentParser(prog="rombit")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    # the global flags are accepted after the subcommand as well
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shared.add_argument("--out", default=argparse.SUPPRESS)
    shared.add_argument("--format", choices=("csv", "jsonl"), default=argparse.SUPPRESS)
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bias", parents=[shared], help="bit-extraction bias estimates")
    b.add_argument("--mode", choices=("p1", "p2", "combine"), required=True)
    b.add_argument("--alpha", type=rational, default=Fraction(1, 2))
    b.add_argument("--r", type=rational, default=Fraction(2, 5))
    b.add_argument("--n", type=int, default=100000)
    b.add_argument("--trials", type=int, default=100000)
    b.add_argument("--exact", action="store_true")
    b.set_defaults(fn=_cmd_bias)

    g = sub.add_parser("guess", parents=[shared], help="binary string guessing")
    g.add_argument("--n", type=int, default=10000)
    g.add_argument("--p-one", dest="p_one", type=float, default=0.6)
    g.add_argument("--trials", type=int, default=1000)
    g.set_defaults(fn=_cmd_guess)

    for command, text in (("knapsack", "knapsack ROM experiments"),
                          ("intervals", "interval selection ROM experiments"),
                          ("throughput", "equal-length throughput ROM experiments")):
        sp = sub.add_parser(command, parents=[shared], help=text)
        variants = [v for c, v in RUNS if c == command]
        if variants == [None]:
            sp.set_defaults(variant=None)
        else:
            sp.add_argument("--variant", choices=variants, default=variants[0])
        sp.add_argument("--instances", help="JSON-lines instance file")
        sp.add_argument("--family", default="uniform")
        sp.add_argument("--params", help="JSON dict of family parameters")
        sp.add_argument("--count", type=int, default=20)
        sp.add_argument("--exact", action="store_true")
        sp.add_argument("--trials", type=int, default=200)
        sp.add_argument("--audit", action="store_true")
        sp.set_defaults(fn=_cmd_run)

    gen = sub.add_parser("gen", parents=[shared], help="write an instance file")
    gen.add_argument("--problem", required=True)
    gen.add_argument("--family", required=True)
    gen.add_argument("--params")
    gen.add_argument("--count", type=int, default=20)
    gen.set_defaults(fn=_cmd_gen)

    rp = sub.add_parser("report", parents=[shared], help="convert a JSON-lines report to CSV")
    rp.add_argument("--input", required=True)
    rp.set_defaults(fn=_cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "gen" and not args.out:
        ap.error("gen requires --out")
    if args.command == "report" and not args.out:
        ap.error("report requires --out")
    try:
        return args.fn(args)
    except (ParseError, InputError, CapacityError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
