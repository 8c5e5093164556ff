"""Command-line interface smoke tests."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import rombit
from rombit.cli import build_parser, main


def test_gen_and_run_with_audit(tmp_path, capsys):
    inst_file = tmp_path / "prop.jsonl"
    rc = main(["gen", "--problem", "knapsack_proportional", "--family", "uniform",
               "--params", '{"n": [4, 5], "support": 3}', "--count", "5",
               "--seed", "3", "--out", str(inst_file)])
    assert rc == 0
    out_file = tmp_path / "prop.csv"
    rc = main(["knapsack", "--variant", "proportional", "--instances", str(inst_file),
               "--exact", "--audit", "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("instance_id,problem,model")
    assert len(lines) == 6


def test_bias_cli(capsys):
    rc = main(["bias", "--mode", "combine", "--r", "2/5", "--n", "2000",
               "--trials", "500", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "predicted=" in out and "empirical=" in out


def test_bias_exact_cli(capsys):
    rc = main(["bias", "--mode", "p1", "--alpha", "1/2", "--n", "6", "--exact"])
    assert rc == 0
    assert "prob_one=" in capsys.readouterr().out
    # combine conditions on the copied key arriving first, as Monte Carlo
    # does; over all orders it would be 113/210
    assert main(["bias", "--mode", "combine", "--r", "2/5", "--n", "10", "--exact"]) == 0
    assert capsys.readouterr().out == "mode=combine n=10 exact prob_one=25/42 no_bit=0\n"


@pytest.mark.parametrize("n", ["1", "-5"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "monte-carlo"])
def test_bias_p2_needs_two_items(n, exact, capsys):
    argv = ["bias", "--mode", "p2", "--n", n, "--trials", "10"]
    assert main(argv + (["--exact"] if exact else [])) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: need at least two items\n")


@pytest.mark.parametrize("mode, want", [("p1", 2 / 3), ("p2", 1 / 2), ("combine", 41 / 70)],
                         ids=["p1", "p2", "combine"])
def test_bias_exact_at_ten_thousand_items(mode, want, capsys):
    # exact at n = 1e4 in every mode, near the family's limit; one item past
    # the guard of 1e5 is a one-line error
    assert main(["bias", "--mode", mode, "--n", "10000", "--exact"]) == 0
    fields = capsys.readouterr().out.split()
    assert fields[1:3] == ["n=10000", "exact"] and fields[4] == "no_bit=0"
    assert abs(float(Fraction(fields[3].removeprefix("prob_one="))) - want) <= 1e-4
    assert main(["bias", "--mode", mode, "--n", "100001", "--exact"]) == 2
    assert capsys.readouterr() == ("", "error: n=100001 exceeds the exact bias guard 100000\n")


@pytest.mark.parametrize("mode", ["p2", "combine"])
def test_bias_at_two_to_the_forty_items(mode, capsys):
    # a family is a profile of at most three groups, whatever n
    start = time.perf_counter()
    assert main(["bias", "--mode", mode, "--n", str(2**40), "--trials", "2000"]) == 0
    assert time.perf_counter() - start < 1
    row = dict(field.split("=") for field in capsys.readouterr().out.split())
    assert abs(float(row["empirical"]) - float(row["predicted"])) <= 4.5 * float(row["stderr"])


@pytest.mark.parametrize("mode, bound", [("p1", 2**64 + 2), ("p2", 2**64 + 2),
                                         ("combine", 2**64 + 1)])
def test_bias_bound_above_two_to_the_64(mode, bound, capsys):
    # combine draws its first arrival's successor from n - 1 items
    assert main(["bias", "--mode", mode, "--n", str(2**64 + 2), "--trials", "10"]) == 2
    assert capsys.readouterr() == ("", f"error: bound must lie in [1, 2**64], got {bound}\n")


def test_guess_cli(capsys):
    rc = main(["guess", "--n", "300", "--trials", "100", "--seed", "2"])
    assert rc == 0
    assert "ratio=" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bias", "--mode", "combine", "--n", "2000", "--trials", "500", "--seed", "1"],
    ["bias", "--mode", "p1", "--n", "6", "--exact"],
    ["guess", "--n", "300", "--trials", "100", "--seed", "2"],
], ids=["bias", "bias-exact", "guess"])
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == stdout.encode()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"problem": "mystery", "items": []}\n')
    rc = main(["knapsack", "--instances", str(bad), "--exact"])
    assert rc == 2
    assert "mystery" in capsys.readouterr().err


@pytest.mark.parametrize("line, word", [
    ("[1, 2]", "object"),
    ('{"problem": "knapsack_proportional", "meta": [1], "items": []}', "meta"),
    ('{"problem": "knapsack_proportional", "items": '
     '[{"key": [[1, 2]], "payload": [1, 2]}]}', "payload"),
    ('{"problem": "knapsack_proportional", "meta": {"x": [1, 0]}, "items": '
     '[{"key": [[1, 2]], "payload": {"weight": [1, 2], "value": [1, 2]}}]}', "rational"),
    ('{"problem": "knapsack_proportional", "items": '
     '[{"key": [[1, 2], [1, 3]], "payload": {"weight": [1, 2], "value": [1, 2]}}]}',
     "key [[1, 2], [1, 3]] is not its payload's key [[1, 2], [1, 2]]"),
    ('{"problem": "knapsack_proportional"}', "items must be a JSON array"),
    ('{"problem": "knapsack_proportional", "items": "ab"}', "items must be a JSON array"),
    ('{"problem": "knapsack_proportional", "items": {"a": 1}}', "items must be a JSON array"),
    ('{"problem": "knapsack_proportional", "items": [1, 2]}', "item 0 must be a JSON object"),
    ('{"problem": "knapsack_proportional", "items": '
     '[{"payload": {"weight": [1, 2], "value": [1, 2]}}]}', "item 0 key must be a JSON array"),
    ('{"problem": "knapsack_proportional", "items": '
     '[{"key": 5, "payload": {"weight": [1, 2], "value": [1, 2]}}]}',
     "item 0 key must be a JSON array"),
    ('{"problem": "knapsack_proportional", "meta": {"x": 1.5}, "items": '
     '[{"key": [[1, 2]], "payload": {"weight": [1, 2], "value": [1, 2]}}]}',
     "cannot decode meta value 1.5"),
], ids=["line", "meta", "payload", "meta-zero-denominator", "key-not-payload", "no-items",
        "items-string", "items-object", "item-not-object", "no-key", "key-not-array",
        "meta-float"])
def test_malformed_instance_line(line, word, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(line + "\n")
    rc = main(["knapsack", "--instances", str(bad), "--exact"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1:") and word in err
    assert len(err.strip().splitlines()) == 1


def test_intervals_and_throughput_cli(tmp_path):
    rc = main(["intervals", "--variant", "cben", "--count", "3",
               "--params", '{"n": [3, 4]}', "--exact", "--audit", "--seed", "6"])
    assert rc == 0
    rc = main(["throughput", "--count", "3", "--params", '{"n": [3, 4]}',
               "--exact", "--audit", "--seed", "7"])
    assert rc == 0


def test_audit_violation_exit_code(monkeypatch, capsys):
    from rombit import harness

    def fake_check(s, order, ws, run, opt):
        return ["synthetic violation"]

    monkeypatch.setattr(harness, "_audit_proportional", fake_check)
    argv = ["knapsack", "--variant", "proportional", "--count", "2",
            "--params", '{"n": 4, "support": 2}', "--exact", "--audit", "--seed", "5"]
    assert main(argv) == 1
    assert "synthetic violation" in capsys.readouterr().err
    # bad input still exits 2
    assert main(argv[:-2] + ["--count", "0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_audit_requires_exact(capsys):
    rc = main(["knapsack", "--variant", "proportional", "--count", "2",
               "--params", '{"n": 4}', "--trials", "5", "--audit", "--seed", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--exact" in err and err.count("\n") == 1


def test_jsonl_report_and_convert(tmp_path):
    inst_file = tmp_path / "g.jsonl"
    main(["gen", "--problem", "string_guess", "--family", "bernoulli",
          "--count", "3", "--seed", "4", "--out", str(inst_file)])
    rep = tmp_path / "rows.jsonl"
    rc = main(["knapsack", "--variant", "proportional", "--count", "2",
               "--params", '{"n": 4, "support": 2}', "--exact",
               "--out", str(rep), "--format", "jsonl", "--seed", "9"])
    assert rc == 0
    rows = [json.loads(l) for l in rep.read_text().splitlines()]
    assert all("empirical_ratio" in r for r in rows)
    csv_out = tmp_path / "rows.csv"
    rc = main(["report", "--input", str(rep), "--out", str(csv_out)])
    assert rc == 0
    text = csv_out.read_text()
    assert text.startswith("instance_id,")
    assert "[" not in text  # rationals decode back to p/q form


def test_missing_instance_file_exit_code(capsys):
    rc = main(["knapsack", "--instances", "/nonexistent-rombit.jsonl", "--exact"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_sampled_run_rejects_nonpositive_trials(trials, capsys):
    for argv in (["knapsack", "--count", "2", "--params", '{"n": 4, "support": 2}'],
                 ["bias", "--mode", "combine", "--n", "10"]):
        assert main(argv + ["--trials", trials, "--seed", "1"]) == 2
        assert _one_error_line(capsys).startswith("error: trials must be >= 1"), argv


def test_run_rejects_zero_count(capsys):
    rc = main(["throughput", "--count", "0", "--exact"])
    assert rc == 2
    assert "no instances" in _one_error_line(capsys)


def test_run_rejects_empty_instance_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["knapsack", "--instances", str(empty), "--exact"])
    assert rc == 2
    assert "no instances" in _one_error_line(capsys)


@pytest.mark.parametrize("proc,slack,word", [(0, 5, "proc"), (-10, 5, "proc"),
                                             (10, -5, "slack")])
def test_throughput_rejects_bad_proc_or_slack(proc, slack, word, tmp_path, capsys):
    def item(release, s):
        return {"key": [[proc, 1], [s, 1]],
                "payload": {"proc": [proc, 1], "release": [release, 1], "slack": [s, 1]}}

    inst = {"items": [item(0, 20), item(3, slack), item(7, 0)],
            "meta": {"id": "bad"}, "problem": "throughput"}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(inst) + "\n")
    rc = main(["throughput", "--instances", str(path), "--exact"])
    assert rc == 2
    assert word in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["knapsack", "intervals", "throughput", "gen"])
@pytest.mark.parametrize("params", ["{n: 4", "[4]"])
def test_malformed_params(command, params, tmp_path, capsys):
    argv = [command, "--params", params, "--count", "1"]
    if command == "gen":
        argv += ["--problem", "throughput", "--family", "uniform",
                 "--out", str(tmp_path / "x.jsonl")]
    rc = main(argv)
    assert rc == 2
    assert "--params" in _one_error_line(capsys)


@pytest.mark.parametrize("flag, value, message", [
    ("--n", "0", "n must be >= 1, got 0"),
    ("--n", "-3", "n must be >= 1, got -3"),
    ("--p-one", "1.5", "p_one must lie in [0, 1], got 1.5"),
    ("--p-one", "nan", "p_one must lie in [0, 1], got nan"),
    ("--trials", "0", "trials must be >= 1"),
], ids=["--n-n-0", "--n-n--3", "--p-one-p_one-1.5", "--p-one-p_one-nan", "--trials-trials-0"])
def test_guess_rejects_bad_input(flag, value, message, capsys):
    rc = main(["guess", "--n", "5", "--trials", "2", "--seed", "2", flag, value])
    assert rc == 2
    assert _one_error_line(capsys) == f"error: {message}"


def test_guess_with_no_correct_guess_is_unbounded(capsys):
    # every string is [1], guessed wrong in its one order: n/E[correct] is
    # 1/0, as for the exact string_guess row, not ratio=inf with exit 0
    rc = main(["guess", "--n", "1", "--p-one", "1", "--trials", "3"])
    assert rc == 2
    assert capsys.readouterr() == (
        "", "error: E[correct] is 0, so n/E[correct] is unbounded\n")


@pytest.mark.parametrize("workers", ["abc", "0", "-2"])
def test_bad_rombit_workers(workers, monkeypatch, capsys):
    monkeypatch.setenv("ROMBIT_WORKERS", workers)
    rc = main(["knapsack", "--count", "2", "--params", '{"n": 4, "support": 2}',
               "--exact", "--seed", "1"])
    assert rc == 2
    assert "ROMBIT_WORKERS" in _one_error_line(capsys)


def _pair(x):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _interval_file(tmp_path, items, meta):
    """An interval instance file of (release, length, weight) items."""
    inst = {"items": [{"key": [_pair(w), _pair(L)],
                       "payload": {"length": _pair(L), "release": _pair(r), "weight": _pair(w)}}
                      for r, L, w in items],
            "meta": {"id": "iv-0", **meta}, "problem": "interval"}
    path = tmp_path / "iv.jsonl"
    path.write_text(json.dumps(inst) + "\n")
    return path


@pytest.mark.parametrize("releases, weights, ratio", [
    ((0, 0, 4, 4), (1, 1, 1, 9), Fraction(20, 7)),
    ((0, 0, 4, 4, 8, 8, 12, 12, 16, 16), (1,) * 9 + (100,), Fraction(1040, 137)),
], ids=["n4-heavy9", "n10-heavy100"])
def test_single_length_release_pairs_ratio(releases, weights, ratio, tmp_path, capsys):
    # Release pairs with one heavy interval: the bit is the parity of the
    # heavy arrival's index, which also fixes its slot's parity, so the bit
    # picks the branch without it.  Every per-order check holds, yet
    # OPT/E[ALG] is far above 1/(sqrt(2) - 1); these are the measured values.
    path = _interval_file(tmp_path, [(r, 4, w) for r, w in zip(releases, weights)],
                          {"variant": "single"})
    out = tmp_path / "report.jsonl"
    rc = main(["intervals", "--instances", str(path), "--exact", "--audit",
               "--format", "jsonl", "--out", str(out)])
    assert rc == 0 and "violations=0" in capsys.readouterr().out
    assert Fraction(*json.loads(out.read_text())["empirical_ratio"]) == ratio


def test_interval_report_is_in_the_instance_units(tmp_path, capsys):
    # rational weights are scaled to ints over their common denominator;
    # the report divides it back out of mean_alg and opt
    path = _interval_file(tmp_path, [(0, 4, Fraction(1, 2)), (1, 4, Fraction(1, 3)),
                                     (5, 4, Fraction(1, 3))], {"variant": "single"})
    out = tmp_path / "report.jsonl"
    rc = main(["intervals", "--variant", "single", "--instances", str(path), "--exact",
               "--audit", "--format", "jsonl", "--out", str(out)])
    assert rc == 0 and "violations=0" in capsys.readouterr().out
    row = json.loads(out.read_text())
    assert Fraction(*row["opt"]) == Fraction(5, 6)
    assert Fraction(*row["mean_alg"]) == Fraction(1, 2)
    assert Fraction(*row["empirical_ratio"]) == Fraction(5, 3)


def _cben_file(tmp_path, table, lengths=((2, 4), (3, 9), (2, 4))):
    return _interval_file(tmp_path, [(r, L, w) for r, (L, w) in zip((0, 1, 4), lengths)],
                          {"variant": "c_benevolent", "weight_table": table})


def test_cben_weight_table_plain_and_rational_sides(tmp_path, capsys):
    outputs = []
    for table in ([[2, 4], [3, 9]], [[[2, 1], [4, 1]], [[3, 1], [9, 1]]],
                  [[2, [8, 2]], [[6, 2], 9]]):
        path = _cben_file(tmp_path, table)
        rc = main(["intervals", "--variant", "cben", "--instances", str(path),
                   "--exact", "--audit"])
        assert rc == 0, capsys.readouterr().err
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("table", [[[2]], [[2, 4, 8]], "abc", 4, [2, 4], [[2, [1, 0]]],
                                   [[True, 4]], [[2, "4"]]])
def test_cben_malformed_weight_table(table, tmp_path, capsys):
    path = _cben_file(tmp_path, table)
    rc = main(["intervals", "--variant", "cben", "--instances", str(path), "--exact"])
    assert rc == 2
    assert "weight_table" in _one_error_line(capsys)


@pytest.mark.parametrize("line, word", [
    ('{"opt": [1, 0]}', "not a rational"),
    ("not json", "JSON"),
    ("[1,2]", "object"),
], ids=["zero-denominator", "not-json", "not-object"])
def test_report_rejects_malformed_line(line, word, tmp_path, capsys):
    rows = tmp_path / "rows.jsonl"
    rows.write_text('{"instance_id": "a", "opt": [3, 2]}\n' + line + "\n")
    rc = main(["report", "--input", str(rows), "--out", str(tmp_path / "rows.csv")])
    assert rc == 2
    err = _one_error_line(capsys)
    assert err.startswith("error: line 2: ") and word in err


@pytest.mark.parametrize("argv, word", [
    (["knapsack", "--params", '{"n": "abc"}'], "abc"),
    (["knapsack", "--params", '{"den": 0}'], "'den'"),
    (["throughput", "--params", '{"proc": "x"}'], "x"),
    (["intervals", "--params", '{"length": 0}'], "length"),
    (["intervals", "--params", '{"support": 0}'], "'support'"),
    (["knapsack", "--params", '{"nn": 5}'], "'nn'"),
    (["intervals", "--variant", "monotone", "--params", '{"length": 4}'], "'length'"),
    (["intervals", "--params", '{"variant": "x"}'], "variant"),
    (["knapsack", "--params", '{"support": -1}'], "'support'"),
    (["throughput", "--params", '{"support": 1}'], "'support'"),
    (["knapsack", "--params", '{"n": 0}'], "'n'"),
    (["intervals", "--params", '{"n": [3, 0]}'], "'n'"),
    (["throughput", "--params", '{"n": []}'], "'n'"),
    (["knapsack", "--params", '{"n": 5.5}'], "'n'"),
    (["knapsack", "--params", '{"n": true}'], "'n'"),
    (["knapsack", "--params", '{"n": "5"}'], "'n'"),
    (["intervals", "--params", '{"n": [3, 4.0]}'], "'n'"),
    (["knapsack", "--seed", "2", "--params", '{"n": [4, "x"]}'], "'n'"),
    (["intervals", "--seed", "2", "--params", '{"n": [3, 0]}'], "'n'"),
    (["knapsack", "--params", '{"den": 2.5}'], "'den'"),
    (["knapsack", "--params", '{"support": false}'], "'support'"),
    (["intervals", "--params", '{"support": 2.0}'], "'support'"),
    (["throughput", "--params", '{"support": 2.9}'], "'support'"),
    (["throughput", "--params", '{"proc": true}'], "'proc' must be a rational, got True"),
    (["intervals", "--params", '{"length": true}'], "'length' must be a rational"),
    (["knapsack", "--family", "two_type", "--params", '{"alpha": true}'], "'alpha'"),
    (["knapsack", "--family", "two_type", "--params", '{"w0": false}'], "'w0'"),
    (["knapsack", "--family", "two_type", "--params", '{"w1": true}'], "'w1'"),
    (["knapsack", "--variant", "tworbin", "--family", "adversarial",
      "--params", '{"epsilon": true}'], "'epsilon' must be a rational, got True"),
    (["gen", "--problem", "string_guess", "--family", "bernoulli",
      "--params", '{"p_one": true}'], "'p_one' must be a rational, got True"),
    (["gen", "--problem", "string_guess", "--family", "bernoulli",
      "--params", '{"p_one": 1.5}'], "'p_one' must lie in [0, 1]"),
    (["gen", "--problem", "string_guess", "--family", "two_type",
      "--params", '{"alpha": true}'], "'alpha'"),
    (["knapsack", "--family", "two_type", "--params", '{"alpha": 1e999}'], "Infinity"),
    (["knapsack", "--family", "two_type", "--params", '{"alpha": 7}'],
     "'alpha' must lie in [0, 1], got 7"),
    (["knapsack", "--family", "two_type", "--params", '{"alpha": -3}'],
     "'alpha' must lie in [0, 1], got -3"),
    (["gen", "--problem", "string_guess", "--family", "two_type",
      "--params", '{"alpha": 1.5}'], "'alpha' must lie in [0, 1], got 3/2"),
    (["knapsack", "--variant", "tworbin", "--family", "adversarial",
      "--params", '{"epsilon": -1}'], "'epsilon' must lie in (0, 1], got -1"),
    (["knapsack", "--family", "adversarial", "--params", '{"epsilon": 0}'],
     "'epsilon' must lie in (0, 1], got 0"),
    (["knapsack", "--family", "two_type", "--params", '{"w0": 2}'],
     "'w0' must lie in (0, 1], got 2"),
    (["knapsack", "--variant", "general", "--family", "two_type", "--params", '{"w1": 0}'],
     "'w1' must lie in (0, 1], got 0"),
    (["gen", "--problem", "interval", "--family", "uniform", "--params", '{"variant": "x"}'],
     "unknown interval variant 'x'"),
    (["gen", "--problem", "foo", "--family", "uniform"], "unknown problem 'foo'"),
    (["knapsack", "--params", '{"family": "bogus", "n": 4}'],
     "error: unknown knapsack_proportional uniform parameter 'family'"),
    (["gen", "--problem", "throughput", "--family", "uniform", "--params", '{"proc": 0}'],
     "'proc' must be positive, got 0"),
    (["gen", "--problem", "interval", "--family", "uniform", "--params", '{"length": 0}'],
     "'length' must be positive, got 0"),
    (["throughput", "--params", '{"proc": -3}'], "'proc' must be positive, got -3"),
], ids=["knapsack-n", "knapsack-den", "throughput-proc", "intervals-length",
        "intervals-support", "knapsack-unknown-key", "intervals-unread-key",
        "intervals-other-variant", "knapsack-support", "throughput-support",
        "knapsack-n-zero", "intervals-n-list-zero", "throughput-n-empty-list",
        "knapsack-n-float", "knapsack-n-bool", "knapsack-n-string",
        "intervals-n-list-float", "knapsack-n-list-undrawn-string",
        "intervals-n-list-undrawn-zero", "knapsack-den-float", "knapsack-support-bool",
        "intervals-support-float", "throughput-support-float", "throughput-proc-bool",
        "intervals-length-bool", "knapsack-alpha-bool", "knapsack-w0-bool",
        "knapsack-w1-bool", "tworbin-epsilon-bool", "gen-p-one-bool",
        "gen-p-one-range", "gen-string-alpha-bool", "knapsack-alpha-infinite",
        "knapsack-alpha-above", "knapsack-alpha-below", "gen-string-alpha-above",
        "tworbin-epsilon-negative", "knapsack-epsilon-zero", "knapsack-w0-above",
        "general-w1-zero", "gen-interval-variant", "gen-unknown-problem",
        "knapsack-family-key", "gen-throughput-proc-zero", "gen-interval-length-zero",
        "throughput-proc-negative"])
def test_bad_params_values(argv, word, tmp_path, capsys):
    # gen writes a file instead of running rows
    out = tmp_path / "x.jsonl"
    rc = main(argv + ["--count", "1"] + (["--out", str(out)] if argv[0] == "gen"
                                         else ["--exact"]))
    assert rc == 2 and not out.exists()
    assert word in _one_error_line(capsys)


@pytest.mark.parametrize("argv, message", [
    (["knapsack", "--params", '{"n": 1000000}', "--count", "1", "--trials", "1"],
     "n=1000000 exceeds oracle guard 24"),
    (["throughput", "--params", '{"n": 10000000}', "--count", "1", "--trials", "1"],
     "n=10000000 exceeds oracle guard 10"),
    (["intervals", "--params", '{"n": 3000000}', "--count", "1", "--exact"],
     "n=3000000 exceeds the exact-mode enumeration guard 10"),
    (["knapsack", "--variant", "general", "--params", '{"n": [4, 25]}', "--count", "1"],
     "n=25 exceeds oracle guard 24"),
    (["throughput", "--params", '{"n": 11}', "--count", "1", "--exact"],
     "n=11 exceeds the exact-mode enumeration guard 10"),
    (["knapsack", "--params", '{"n": 2e21}', "--count", "1", "--exact"],
     "bad knapsack_proportional uniform parameters: 'n' must be an integer, got 2e+21"),
    (["knapsack", "--params", '{"n": [1000000, "x"]}', "--count", "1"],
     "bad knapsack_proportional uniform parameters: 'n' must be an integer, got 'x'"),
    (["knapsack", "--params", '{"support": 1180591620717411303424, "n": 4}', "--count", "1",
      "--exact"], "bad knapsack_proportional uniform parameters: 'support' must be at most "
     "1000, got 1180591620717411303424"),
    (["intervals", "--params", '{"support": 1180591620717411303424, "n": 4}', "--count", "1",
      "--exact"], "bad interval uniform parameters: 'support' must be at most 1000, "
     "got 1180591620717411303424"),
    (["knapsack", "--params", '{"nn": 5, "n": 30}', "--count", "1", "--trials", "1"],
     "unknown knapsack_proportional uniform parameter 'nn'"),
    (["intervals", "--params", '{"nn": 5, "n": 3000000}', "--count", "1", "--exact"],
     "unknown interval uniform parameter 'nn'"),
    (["throughput", "--params", '{"nn": 5, "n": 10000000}', "--count", "1", "--trials", "1"],
     "unknown throughput uniform parameter 'nn'"),
], ids=["knapsack", "throughput", "intervals-exact", "knapsack-list", "throughput-exact",
        "bad-n", "bad-n-in-list", "knapsack-support", "intervals-support",
        "knapsack-unknown-key", "intervals-unknown-key", "throughput-unknown-key"])
def test_oversize_n_is_rejected_before_any_draw(argv, message, capsys):
    # the guard that would reject the rows rejects the family's largest n
    # before generation draws anything; a bad n keeps generation's error, an
    # unknown key is reported before the guard, and a pool's "support" past
    # its bound is rejected before the pool is drawn
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_monte_carlo_work_is_bounded_before_the_first_draw(capsys):
    # one key holds all but one of 1e6 items, so a trial that starts on it
    # expects 499,999 copies before the other key; that ran 3.4 s
    start = time.perf_counter()
    assert main(["bias", "--mode", "p1", "--alpha", "1/1000000", "--n", "1000000",
                 "--trials", "20"]) == 2
    assert time.perf_counter() - start < 1
    assert _one_error_line(capsys) == "error: E[J]=499999 exceeds Monte Carlo guard 10000"


def test_gen_writes_any_n(tmp_path, capsys):
    # no oracle runs on a written file, so gen is not held to its guard
    out = tmp_path / "big.jsonl"
    assert main(["gen", "--problem", "knapsack_general", "--family", "uniform",
                 "--params", '{"n": 30}', "--count", "1", "--out", str(out)]) == 0
    assert rombit.read_instances(out)[0].n == 30


@pytest.mark.parametrize("problem, words, n, guard", [
    ("knapsack_general", ["knapsack", "--variant", "general"], 25, 24),
    ("knapsack_proportional", ["knapsack"], 25, 24),
    ("throughput", ["throughput"], 11, 10),
], ids=["general", "proportional", "throughput"])
def test_sampled_file_rows_check_the_oracle_guard_first(problem, words, n, guard, tmp_path,
                                                         capsys):
    # a file skips the family's size check, so the row checks the instance
    # against its oracle guard before any order runs, and names it
    path = tmp_path / "big.jsonl"
    assert main(["gen", "--problem", problem, "--family", "uniform", "--params",
                 json.dumps({"n": n}), "--count", "1", "--out", str(path)]) == 0
    (inst,) = rombit.read_instances(path)
    capsys.readouterr()
    assert main(words + ["--instances", str(path), "--trials", "3"]) == 2
    assert capsys.readouterr() == (
        "", f"error: {inst.meta_value('id')}: n={n} exceeds oracle guard {guard}\n")


@pytest.mark.parametrize("argv", [
    ["intervals", "--family", "bogus", "--count", "1", "--exact"],
    ["throughput", "--family", "bogus", "--count", "1", "--exact"],
    ["gen", "--problem", "interval", "--family", "bogus"],
    ["knapsack", "--family", "bogus", "--count", "1", "--exact"],
    ["gen", "--problem", "string_guess", "--family", "uniform"],
], ids=["intervals", "throughput", "gen-interval", "knapsack", "gen-string-uniform"])
def test_unknown_family(argv, tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    rc = main(argv + ["--out", str(out)])
    assert rc == 2 and not out.exists()
    assert repr(argv[argv.index("--family") + 1]) in _one_error_line(capsys)


@pytest.mark.parametrize("flag", ["--alpha", "--r"])
@pytest.mark.parametrize("value", ["1/0", "3/ 0", "-2/-0"])
def test_bias_rejects_zero_denominator(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bias", "--mode", "p1", f"{flag}={value}", "--n", "10", "--exact"])
    assert exc.value.code == 2
    assert f"invalid rational value: {value!r}" in capsys.readouterr().err


def test_bias_fraction_spellings(capsys):
    # every spelling of a rational that the flags took before a zero
    # denominator became bad input
    for value in ("1/2", " 1 / 2 ", "2/4", "-1/-2", "0.5"):
        assert main(["bias", "--mode", "p1", f"--alpha={value}", "--n", "6", "--exact"]) == 0
    assert capsys.readouterr().out.count("prob_one=") == 5


def test_intervals_reject_nonpositive_length_in_file(tmp_path, capsys):
    items = [{"key": [[w, 1], [0, 1]],
              "payload": {"length": [0, 1], "release": [r, 1], "weight": [w, 1]}}
             for r, w in ((0, 1), (1, 2))]
    path = tmp_path / "zero.jsonl"
    path.write_text(json.dumps({"items": items, "meta": {"id": "z"},
                                "problem": "interval"}) + "\n")
    rc = main(["intervals", "--instances", str(path), "--exact"])
    assert rc == 2
    assert "length" in _one_error_line(capsys)


def test_proportional_rejects_value_other_than_weight(tmp_path, capsys):
    # weights 1/2, 1/2, 1/4 with values 1, 1/3, 1: a proportional item's
    # value is its weight, so the file is bad input before any order runs
    items = [{"key": [v, w], "payload": {"value": v, "weight": w}}
             for w, v in (([1, 2], [1, 1]), ([1, 2], [1, 3]), ([1, 4], [1, 1]))]
    path = tmp_path / "prop.jsonl"
    path.write_text(json.dumps({"items": items, "meta": {"id": "p-0"},
                                "problem": "knapsack_proportional"}) + "\n")
    rc = main(["knapsack", "--variant", "proportional", "--instances", str(path),
               "--exact", "--audit"])
    assert rc == 2
    assert "value must equal its weight" in _one_error_line(capsys)


@pytest.mark.parametrize("command, problem, field", [
    ("knapsack", "knapsack_proportional", "weight"),
    ("intervals", "interval", "length"),
    ("throughput", "throughput", "slack"),
])
def test_missing_payload_field_is_bad_input(command, problem, field, tmp_path, capsys):
    path = tmp_path / "inst.jsonl"
    assert main(["gen", "--problem", problem, "--family", "uniform", "--params",
                 '{"n": 4}', "--count", "1", "--seed", "1", "--out", str(path)]) == 0
    inst = json.loads(path.read_text())
    for item in inst["items"]:
        del item["payload"][field]
    path.write_text(json.dumps(inst) + "\n")
    capsys.readouterr()
    rc = main([command, "--instances", str(path), "--exact"])
    assert rc == 2
    assert repr(field) in _one_error_line(capsys)


@pytest.mark.parametrize("meta, variant", [({}, "cben"), ({"variant": "c_benevolent"}, "single")],
                         ids=["single-as-cben", "cben-as-single"])
def test_intervals_reject_other_variant_in_file(meta, variant, tmp_path, capsys):
    path = _interval_file(tmp_path, [(0, 2, 4), (1, 2, 4), (4, 2, 4)], meta)
    rc = main(["intervals", "--variant", variant, "--instances", str(path),
               "--exact", "--audit"])
    assert rc == 2
    assert "variant" in _one_error_line(capsys)


@pytest.mark.parametrize("items, meta, argv, word", [
    # weight is increasing in length but not convex, and there is no table
    ([(0, 2, 10), (1, 3, 11), (4, 2, 10)], {"variant": "c_benevolent"},
     ["--variant", "cben", "--exact"], "convex"),
    # a length spread of 4 over a release gap of 3: only the orders that put
    # the long interval first break the deadlines' release order
    ([(0, 3, 1), (3, 7, 2)], {"variant": "monotone"},
     ["--variant", "monotone", "--trials", "1", "--seed", "5"], "monotone"),
], ids=["cben-tableless-concave", "monotone-some-orders"])
def test_intervals_check_the_variant_rule_once(items, meta, argv, word, tmp_path, capsys):
    path = _interval_file(tmp_path, items, meta)
    rc = main(["intervals", "--instances", str(path)] + argv)
    assert rc == 2
    assert word in _one_error_line(capsys)


def _run_fresh(argv, out):
    """``argv`` as the first call of a new process: (exit code, stdout,
    stderr, the --out file or None)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rombit.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "rombit.cli", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr, _take(out)


def _run_in_process(argv, out, capsys):
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, _take(out)


def _take(path):
    if not path.exists():
        return None
    text = path.read_text()
    path.unlink()
    return text


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rows = ["--count", "2", "--params", '{"n": 3}', "--exact", "--out", str(out)]
    calls = [
        ["knapsack", "--variant", "general", "--seed", "4", *rows],  # --seed after
        ["knapsack", *rows],  # --variant and --seed defaulted
        ["--seed", "3", "intervals", "--variant", "monotone", *rows],
        ["intervals", "--variant", "bogus", *rows],  # exit 2 from argparse
        ["intervals", *rows],
        ["gen", "--problem", "throughput", "--family", "uniform"],  # exit 2: no --out
        ["throughput", "--format", "jsonl", *rows],
        ["report", "--input", str(out)],  # exit 2: no --out
        ["throughput", *rows],
    ]
    assert build_parser() is build_parser()
    codes = []
    for argv in calls:
        fresh = _run_fresh(argv, out)
        assert _run_in_process(argv, out, capsys) == fresh, argv
        codes.append(fresh[0])
    assert codes == [0, 0, 0, 2, 0, 2, 0, 2, 0]


def _knapsack_file(tmp_path, pairs, problem="knapsack_general"):
    """A knapsack instance file of (value, weight) items."""
    inst = {"items": [{"key": [_pair(v), _pair(w)],
                       "payload": {"value": _pair(v), "weight": _pair(w)}}
                      for v, w in pairs],
            "meta": {"id": "k-0"}, "problem": problem}
    path = tmp_path / "k.jsonl"
    path.write_text(json.dumps(inst) + "\n")
    return path


def _throughput_file(tmp_path, items):
    """A throughput instance file of (release, slack) items with proc 10."""
    inst = {"items": [{"key": [[10, 1], _pair(s)],
                       "payload": {"proc": [10, 1], "release": _pair(r), "slack": _pair(s)}}
                      for r, s in items],
            "meta": {"id": "t-0"}, "problem": "throughput"}
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(inst) + "\n")
    return path


@pytest.mark.parametrize("make, argv, message", [
    (lambda p: _interval_file(p, [(0, Fraction(-1, 2), 1), (1, 3, 1)], {}),
     ["intervals", "--exact"], "interval length must be positive, got -1/2"),
    (lambda p: _interval_file(p, [(0, 3, 1), (Fraction(1, 2), 4, 2)], {"variant": "monotone"}),
     ["intervals", "--variant", "monotone", "--exact"],
     "monotone constraint violated: length spread 1 exceeds the smallest release gap 1/2"),
    (lambda p: _knapsack_file(p, [(1, Fraction(1, 2)), (1, Fraction(3, 2))]),
     ["knapsack", "--variant", "general", "--exact"], "weights must lie in (0, 1]"),
    (lambda p: _knapsack_file(p, [(1, Fraction(1, 2)), (0, Fraction(1, 2))]),
     ["knapsack", "--variant", "general", "--exact"], "values must be positive"),
    (lambda p: _interval_file(p, [(Fraction(-1, 3), 4, 1), (1, 4, 1)], {}),
     ["intervals", "--exact"], "line 1: release must be non-negative"),
    (lambda p: _interval_file(p, [(2, 4, 1), (Fraction(3, 2), 4, 1)], {}),
     ["intervals", "--exact"], "line 1: releases must be non-decreasing in item order"),
    (lambda p: _interval_file(p, [(0, 2, 4), (1, 3, 10)],
                              {"variant": "c_benevolent",
                               "weight_table": [[2, 4], [3, 9]]}),
     ["intervals", "--variant", "cben", "--exact"],
     "item weight 10 does not match the table at length 3"),
    (lambda p: _throughput_file(p, [(0, 0), (3, Fraction(-1, 2))]),
     ["throughput", "--exact"], "throughput slack must be non-negative, got -1/2"),
    # a negative weight once ran to two "cover < OPT(suffix)" violations and a
    # ratio of -2, and all-zero weights to an "E[ALG] is 0" line
    (lambda p: _interval_file(p, [(0, 4, 1), (4, 4, -3)], {}),
     ["intervals", "--exact"], "interval weight must be positive, got -3"),
    (lambda p: _interval_file(p, [(0, 4, 0), (1, 4, 0)], {}),
     ["intervals", "--exact"], "interval weight must be positive, got 0"),
    (lambda p: _interval_file(p, [(0, 2, 4), (1, 3, 9)], {}),
     ["knapsack", "--exact"],
     "instance problem 'interval' does not match 'knapsack_proportional'"),
    (lambda p: _interval_file(p, [(0, 2, 4), (1, 3, 9)],
                              {"variant": "c_benevolent", "weight_table": [[0, 1]]}),
     ["intervals", "--variant", "cben", "--exact"],
     "weight table lengths and weights must be positive"),
], ids=["length", "monotone", "weights", "values", "release", "releases", "cben-lookup",
        "slack", "interval-weight-negative", "interval-weights-zero", "other-problem",
        "cben-table-zero-length"])
def test_instance_check_messages(make, argv, message, tmp_path, capsys):
    rc = main(argv + ["--instances", str(make(tmp_path))])
    assert rc == 2
    assert _one_error_line(capsys) == f"error: {message}"

