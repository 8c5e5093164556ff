"""Command-line interface smoke tests."""

import json

import pytest

from rombit.cli import main


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


def test_guess_cli(capsys):
    rc = main(["guess", "--n", "300", "--trials", "100", "--seed", "2"])
    assert rc == 0
    assert "ratio=" in capsys.readouterr().out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"problem": "mystery", "items": []}\n')
    rc = main(["knapsack", "--instances", str(bad), "--exact"])
    assert rc == 2
    assert "mystery" in capsys.readouterr().err


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
    rc = main(["knapsack", "--count", "2", "--params", '{"n": 4, "support": 2}',
               "--trials", trials, "--seed", "1"])
    assert rc == 2
    assert "trials" in _one_error_line(capsys)


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


@pytest.mark.parametrize("flag,name,value", [("--n", "n", "0"), ("--n", "n", "-3"),
                                             ("--p-one", "p_one", "1.5"),
                                             ("--p-one", "p_one", "nan")])
def test_guess_rejects_bad_input(flag, name, value, capsys):
    rc = main(["guess", flag, value, "--trials", "2", "--seed", "2"])
    assert rc == 2
    line = _one_error_line(capsys)
    assert f"{name} must" in line and value in line


@pytest.mark.parametrize("workers", ["abc", "0", "-2"])
def test_bad_rombit_workers(workers, monkeypatch, capsys):
    monkeypatch.setenv("ROMBIT_WORKERS", workers)
    rc = main(["knapsack", "--count", "2", "--params", '{"n": 4, "support": 2}',
               "--exact", "--seed", "1"])
    assert rc == 2
    assert "ROMBIT_WORKERS" in _one_error_line(capsys)
