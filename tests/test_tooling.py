"""The benchmark tracer patches names that exist in the package, every
module-level definition in the package is reached by more than tests, the tiny
exact reports match the benchmark's golden digests, the benchmark's
key-counted orders are the harness's column orders, seeded Monte Carlo and
``bias --exact`` lines, sampled row reports and ``gen`` output stay
byte-identical, the README's CLI commands parse and its ``module.name``
references resolve, the package version is the one ``pyproject.toml``
declares, and ``extraction.Run`` alone declares the commit rule."""

import ast
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import math
import pkgutil
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import rombit
from rombit import core, harness
from rombit.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """A module of the benchmark directory, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = perfbench_module("tracing")
    patches = tracing.PATCHES + tracing.GENERATOR_PATCHES
    assert patches
    for _, home, fn, _ in patches:
        module = importlib.import_module(f"rombit.{home}")
        assert callable(getattr(module, fn, None)), f"rombit.{home}.{fn}"


# module-level names that only tests reach, each kept for the acceptance
# criterion it serves
TEST_ONLY_NAMES = {
    "exact_distinct_conditional": "C2",
    "exact_revocation_tail": "C5",
}


def test_no_test_only_code_in_src():
    # every module-level function and class is used by the package's own
    # code, traced by the benchmark or an allowlisted criterion helper; a
    # docstring mention is no use, and neither is an import or export in
    # ``__init__.py``, which would pass any name that only tests call
    paths = sorted(Path(rombit.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    used = set()
    for path, tree in zip(paths, trees):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    tracing = perfbench_module("tracing")
    used |= {fn for _, _, fn, _ in tracing.PATCHES + tracing.GENERATOR_PATCHES}
    used |= set(TEST_ONLY_NAMES)
    defined = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(defined) > 50 and set(TEST_ONLY_NAMES) <= set(defined)
    assert sorted(set(defined) - used) == []


def test_harness_is_the_one_enumerator_of_arrival_orders():
    # ``core`` defines ``distinct_orderings`` and ``harness`` alone walks it;
    # the exact bias oracles sum the law of the first unlike arrival instead
    naming = set()
    for path in sorted(Path(rombit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([node.id] if isinstance(node, ast.Name)
                     else [node.name] if isinstance(node, ast.FunctionDef)
                     else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute) else [])
            if "distinct_orderings" in names:
                naming.add(path.stem)
    assert naming == {"core", "harness"}


def test_the_commit_rule_is_written_once():
    # ``extraction.Run`` alone declares a run's bit, its branch values and
    # the committed value; every other run record subclasses it
    declared = []
    for path in sorted(Path(rombit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                names = ([stmt.target] if isinstance(stmt, ast.AnnAssign)
                         else stmt.targets if isinstance(stmt, ast.Assign) else [])
                names = [n.id for n in names if isinstance(n, ast.Name)]
                if isinstance(stmt, ast.FunctionDef):
                    names.append(stmt.name)
                declared += [(path.stem, node.name, n) for n in names
                             if n in ("bit", "one", "zero", "value")]
    assert sorted(declared) == [("extraction", "Run", n) for n in ("bit", "one", "value",
                                                                   "zero")]
    # one generated order of every problem, of tworbin and of each interval
    # variant: the run is a Run, and run_order reports its value
    from rombit.extraction import Run

    cases = [(problem, None, {}) for problem in harness.PROBLEM_TABLE]
    cases.append(("knapsack_proportional", "tworbin", {}))
    cases += [("interval", None, {"variant": v}) for v in ("monotone", "c_benevolent")]
    for problem, variant, params in cases:
        spec = harness.PROBLEM_TABLE[problem]
        (inst,) = harness.generate_instances(problem, spec.families[0],
                                             {"n": 5, **params}, 1, 3)
        view = spec.scale(inst)
        run, opt, _, _ = spec.run(view, view.column, variant)
        assert isinstance(run, Run), problem
        assert harness.run_order(view, problem, view.column, variant, audit=True) == (
            run.value, opt, [])


def test_tiny_exact_reports_match_golden_digests(tmp_path, monkeypatch):
    # every pinned tiny exact_audit slot, run through the CLI as the benchmark
    # runs it: a report that is not byte-identical fails here
    workloads, checks = perfbench_module("workloads"), perfbench_module("checks")
    golden = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
    monkeypatch.setenv("ROMBIT_WORKERS", "1")
    checked = 0
    for slot in range(workloads.GOLDEN_SLOTS):
        workdir = tmp_path / str(slot)
        workdir.mkdir()
        for cmd in workloads.exact_set(slot, "tiny", str(workdir), harness, core):
            assert main(list(cmd.argv)) == 0, cmd.golden_key
            report = Path(cmd.report).read_bytes()
            assert checks.digest(report) == golden[cmd.golden_key], cmd.golden_key
            checked += 1
    assert checked == len(workloads.EXACT_COMMANDS) * workloads.GOLDEN_SLOTS



def test_keys_count_the_permuted_column(tmp_path):
    # the benchmark counts an instance's distinct arrival orders by its item
    # keys and the harness walks the orders of its scaled column: the counts
    # agree when a key holds exactly the coordinates that the order permutes
    workloads = perfbench_module("workloads")
    instances = []
    for workload in ("exact_audit", "sampled_rows"):
        for cmds in workloads.build(workload, 42, "tiny", str(tmp_path / workload), harness,
                                    core):
            for cmd in cmds:
                instances += core.read_instances(cmd.argv[cmd.argv.index("--instances") + 1])
    for family in harness.PROBLEM_TABLE["string_guess"].families:
        instances += harness.generate_instances("string_guess", family, {"n": 7}, 3, 42)
    assert {inst.problem for inst in instances} == set(core.PROBLEMS)
    for inst in instances:
        counts = Counter(harness.PROBLEM_TABLE[inst.problem].scale(inst).column)
        multinomial = math.factorial(inst.n)
        for c in counts.values():
            multinomial //= math.factorial(c)
        assert workloads.distinct_order_count(inst) == multinomial, inst.meta_value("id")

# stdout of the tiny stream_mc commands and of ``bias --exact`` at n = 8,
# captured before the Monte Carlo trials became one inlined stream loop
STREAM_STDOUT = {
    (3, "bias_combine"): "mode=combine parameter=2071/5000 predicted=0.585786 "
                         "empirical=0.586140 stderr=0.002203\n",
    (3, "bias_p1"): "mode=process1 parameter=1/2 predicted=0.666667 empirical=0.667180 "
                    "stderr=0.002107\n",
    (3, "bias_p2"): "mode=distinct_unbiased parameter=1/2 predicted=0.500000 "
                    "empirical=0.503060 stderr=0.002236\n",
    (3, "guess"): "n=1000 trials=20 mean_correct=527.000 ratio=1.8975\n",
    (42, "bias_combine"): "mode=combine parameter=2071/5000 predicted=0.585786 "
                          "empirical=0.581040 stderr=0.002207\n",
    (42, "bias_p1"): "mode=process1 parameter=1/2 predicted=0.666667 empirical=0.667040 "
                     "stderr=0.002108\n",
    (42, "bias_p2"): "mode=distinct_unbiased parameter=1/2 predicted=0.500000 "
                     "empirical=0.494680 stderr=0.002236\n",
    (42, "guess"): "n=1000 trials=20 mean_correct=538.050 ratio=1.8586\n",
}
EXACT_STDOUT = {
    "p1": "mode=process1 n=8 exact prob_one=24/35 no_bit=0\n",
    "p2": "mode=distinct_unbiased n=8 exact prob_one=1/2 no_bit=0\n",
    "combine": "mode=combine n=8 exact prob_one=11/21 no_bit=0\n",
}


def cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0, argv
    return buf.getvalue()


def test_seeded_stream_output_is_frozen(tmp_path):
    # the benchmark's tiny stream_mc commands, byte for byte
    workloads = perfbench_module("workloads")
    seen = {}
    for seed in (3, 42):
        for cmd in workloads.build("stream_mc", seed, "tiny", str(tmp_path), harness,
                                   core)[0]:
            seen[seed, cmd.name] = cli_stdout(cmd.argv)
    assert seen == STREAM_STDOUT
    for mode, line in EXACT_STDOUT.items():
        assert cli_stdout(["bias", "--mode", mode, "--n", "8", "--exact"]) == line


# stdout of the full-scale stream_mc commands, bias at n = 1e5 with its
# trials cut to FULL_BIAS_TRIALS (two chunks) and guess at n = 10,000, more
# than one draw block; (seed, command) -> stdout
FULL_BIAS_TRIALS = 5000
FULL_STREAM_STDOUT = {
    (42, "bias_combine"): "mode=combine parameter=2071/5000 predicted=0.585786 "
                          "empirical=0.591600 stderr=0.006951\n",
    (42, "bias_p1"): "mode=process1 parameter=1/2 predicted=0.666667 empirical=0.666400 "
                     "stderr=0.006668\n",
    (42, "bias_p2"): "mode=distinct_unbiased parameter=1/2 predicted=0.500000 "
                     "empirical=0.494800 stderr=0.007071\n",
    (42, "guess"): "n=10000 trials=100 mean_correct=5205.000 ratio=1.9212\n",
    (611, "bias_combine"): "mode=combine parameter=2071/5000 predicted=0.585786 "
                           "empirical=0.588200 stderr=0.006960\n",
    (611, "bias_p1"): "mode=process1 parameter=1/2 predicted=0.666667 empirical=0.663600 "
                      "stderr=0.006682\n",
    (611, "bias_p2"): "mode=distinct_unbiased parameter=1/2 predicted=0.500000 "
                      "empirical=0.492800 stderr=0.007070\n",
    (611, "guess"): "n=10000 trials=100 mean_correct=5196.110 ratio=1.9245\n",
}


def test_full_scale_stream_output_is_frozen(tmp_path):
    workloads = perfbench_module("workloads")
    seen = {}
    for seed in (42, 611):
        for cmd in workloads.build("stream_mc", seed, "full", str(tmp_path), harness,
                                   core)[0]:
            argv = list(cmd.argv)
            if cmd.kind == "bias":
                argv[argv.index("--trials") + 1] = str(FULL_BIAS_TRIALS)
            seen[seed, cmd.name] = cli_stdout(argv)
    assert seen == FULL_STREAM_STDOUT


# stdout of Monte Carlo commands at the edges the benchmark does not reach:
# guessing at p_one 0, 1/2 and 1 on short strings, bias at n = 2, and
# negative seeds; argv -> stdout
EDGE_STREAM_STDOUT = {
    "guess --n 2 --p-one 0 --trials 40 --seed 7":
        "n=2 trials=40 mean_correct=2.000 ratio=1.0000\n",
    "guess --n 3 --p-one 0 --trials 40 --seed 7":
        "n=3 trials=40 mean_correct=3.000 ratio=1.0000\n",
    "guess --n 37 --p-one 0 --trials 40 --seed 7":
        "n=37 trials=40 mean_correct=37.000 ratio=1.0000\n",
    "guess --n 2 --p-one 0.5 --trials 40 --seed 7":
        "n=2 trials=40 mean_correct=1.000 ratio=2.0000\n",
    "guess --n 3 --p-one 0.5 --trials 40 --seed 7":
        "n=3 trials=40 mean_correct=1.500 ratio=2.0000\n",
    "guess --n 37 --p-one 0.5 --trials 40 --seed 7":
        "n=37 trials=40 mean_correct=18.425 ratio=2.0081\n",
    "guess --n 2 --p-one 1 --trials 40 --seed 7":
        "n=2 trials=40 mean_correct=1.000 ratio=2.0000\n",
    "guess --n 3 --p-one 1 --trials 40 --seed 7":
        "n=3 trials=40 mean_correct=2.000 ratio=1.5000\n",
    "guess --n 37 --p-one 1 --trials 40 --seed 7":
        "n=37 trials=40 mean_correct=36.000 ratio=1.0278\n",
    "guess --n 37 --p-one 0.5 --trials 40 --seed -5":
        "n=37 trials=40 mean_correct=18.600 ratio=1.9892\n",
    "guess --n 37 --p-one 0.5 --trials 40 --seed -1180591620717411303424":
        "n=37 trials=40 mean_correct=18.375 ratio=2.0136\n",
    "bias --mode p1 --n 2 --trials 3000 --seed 7":
        "mode=process1 parameter=1/2 predicted=0.666667 empirical=1.000000 "
        "stderr=0.000000\n",
    "bias --mode p2 --n 2 --trials 3000 --seed 7":
        "mode=distinct_unbiased parameter=1/2 predicted=0.500000 empirical=0.507667 "
        "stderr=0.009128\n",
    "bias --mode combine --r 1/2 --n 2 --trials 3000 --seed 7":
        "mode=combine parameter=1/2 predicted=0.583333 empirical=0.000000 "
        "stderr=0.000000\n",
    "bias --mode p1 --n 50 --trials 3000 --seed -5":
        "mode=process1 parameter=1/2 predicted=0.666667 empirical=0.680333 "
        "stderr=0.008514\n",
    "bias --mode p2 --n 50 --trials 3000 --seed -5":
        "mode=distinct_unbiased parameter=1/2 predicted=0.500000 empirical=0.519667 "
        "stderr=0.009122\n",
    "bias --mode combine --n 50 --trials 3000 --seed -5":
        "mode=combine parameter=2/5 predicted=0.585714 empirical=0.603000 "
        "stderr=0.008933\n",
}


def test_edge_stream_output_is_frozen():
    seen = {command: cli_stdout(command.split()) for command in EDGE_STREAM_STDOUT}
    assert seen == EDGE_STREAM_STDOUT


# sha256 of the sampled knapsack reports at n = 16 and 20, where the golden
# digests (exact runs, n <= 8) do not reach: (variant, --params) -> digest
SAMPLED_KNAPSACK_DIGESTS = {
    ("proportional", '{"n": 16, "support": 4}'):
        "a52e51a5e2504dfc3fe88be57b0b729fd54de015023603ffd559602b8acf9fcb",
    ("tworbin", '{"n": 16, "support": 4}'):
        "f8639cf8ee154655c83829a6e7d07823c46dd72dca6621fd77ff10c5fb671692",
    ("proportional", '{"n": 20}'):
        "643e37a342e9aa695515c872d59205f7a497df8bd94b33547e2f3d1d9f053552",
    ("tworbin", '{"n": 20}'):
        "8218472f4b587f10dafdecac790e2282be9178fc6380d295ca6917ab715730d3",
}


def test_sampled_knapsack_reports_are_frozen(tmp_path, monkeypatch):
    monkeypatch.setenv("ROMBIT_WORKERS", "1")
    out = tmp_path / "report.csv"
    for (variant, params), want in SAMPLED_KNAPSACK_DIGESTS.items():
        argv = ["knapsack", "--variant", variant, "--count", "4", "--trials", "50",
                "--seed", "7", "--out", str(out), "--params", params]
        cli_stdout(argv)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, (variant, params)


# sha256 of the sampled reports of the other row commands at the same seed:
# general knapsack, each interval variant (one with a rational length) and
# throughput (one with a rational proc); (command, --variant, --params) -> digest
SAMPLED_ROW_DIGESTS = {
    ("knapsack", "general", '{"n": 16, "support": 4}'):
        "2a4ccb7fddf92a64ab0a205633bdf693d8ba5d4bda05e8524ce46e15255ce20c",
    ("knapsack", "general", '{"n": 20}'):
        "dbf92941e662a54ec00febba044bbebbd66c46cc75d0a61707edb56756eea0ba",
    ("intervals", "single", '{"n": 14}'):
        "6870290c5bbe813bd62413477f32e98034f351291bf60f517cdd1ac3999690a3",
    ("intervals", "single", '{"n": 12, "length": "7/2"}'):
        "919fad3c3e2e3b826d589dbc107f0e8a41ec99fd50177e7352cbe990009d2930",
    ("intervals", "monotone", '{"n": 14}'):
        "ac87e770e88f858add9e7a36e18f602eaed226262c737f5defbdec8744192e88",
    ("intervals", "cben", '{"n": 14}'):
        "3d6d1a8f2e46f32c70f8af3a0cb946fd34b7f5f8cefbbbcc7462203e5a19d977",
    ("throughput", None, '{"n": 10}'):
        "762f93582188602494da8cc16f7d76534ce5da2c8e620017d27135454a6e09bc",
    ("throughput", None, '{"n": [6, 9], "proc": "15/2"}'):
        "9228d1572d07b379e4794b4c026b493b65c6c33e7d0feacaa2ea0f4433c13673",
}


def test_sampled_row_reports_are_frozen(tmp_path, monkeypatch):
    monkeypatch.setenv("ROMBIT_WORKERS", "1")
    out = tmp_path / "report.csv"
    for (command, variant, params), want in SAMPLED_ROW_DIGESTS.items():
        argv = [command, *(["--variant", variant] if variant else []), "--count", "4",
                "--trials", "50", "--seed", "7", "--out", str(out), "--params", params]
        cli_stdout(argv)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, (command, variant, params)


# sha256 of ``rombit gen --count 3 --seed 11`` for every problem and family,
# each interval variant, and the in-range edges of the family parameters:
# (problem, family, --params) -> digest of the instance file
GEN_DIGESTS = {
    ("string_guess", "bernoulli", '{"n": [5, 8]}'):
        "f0e25f9cfff3e2f45d3d8d2b7e44238f424f3d40d2769bf118d973911ade6328",
    ("string_guess", "two_type", '{"n": 9}'):
        "430923b3ea37c03ce431a5cf469e1b652df52e5a316e1e814f7a45eb78a71775",
    ("knapsack_general", "uniform", '{"n": [4, 6]}'):
        "4cecd07d0770be8477b30ba87007d56517f567bae9be56ca97d38766cd3d70d0",
    ("knapsack_general", "uniform", '{"n": 6, "support": 3}'):
        "d88dc410d88dfa997f8488c4abdd2c454856aea1f968826c91d4f251b0a61b00",
    ("knapsack_general", "two_type", '{"n": 7}'):
        "d618efdf6a7ab8200b7e7ac13ae81cd992d2acc3b4de8a078f290c2c8963e410",
    ("knapsack_general", "adversarial", '{"n": 5}'):
        "ad6b9f837fd7edadfc4fd676f030c094123b0a8234e54919f604b6d0876dc10f",
    ("knapsack_proportional", "uniform", '{"n": [4, 6]}'):
        "242c9e360c188f2b61f316bea22f3a2a975f2d0dda1f9083e67ae30c8cbf598c",
    ("knapsack_proportional", "uniform", '{"n": 6, "support": 3}'):
        "03831b200ac9c0bccd5c01ae93a11b99f30b4667beef7eccdc4b8b2d08d6f097",
    ("knapsack_proportional", "two_type", '{"n": 7}'):
        "88c5948d2084c7a2e141541dcdf8de97bccdcf1ea3f278977b8ed714b1d54f4e",
    ("knapsack_proportional", "adversarial", '{"n": 5}'):
        "1f65c415a67aba7127f29b23941681a3f6438c9f3d44fe1dbdf765586aa65530",
    ("interval", "uniform", '{"n": [4, 6], "variant": "single"}'):
        "c3162431b232651a80bd085c0ad74d8cafb097226339aec6c1016be2823aed06",
    ("interval", "uniform", '{"n": [4, 6], "variant": "monotone"}'):
        "e5c1e4b49912d19a31bca12e03833fe31984dcaefa42b89187dedc46056126ee",
    ("interval", "uniform", '{"n": [4, 6], "variant": "c_benevolent"}'):
        "3323b14e9934a9f25fdc67c2a42fcba5f7132407e3df44e0d50de62bba0ec3b4",
    ("throughput", "uniform", '{"n": [4, 6]}'):
        "f66f0b3700249adbd051c63252fc909f62edeead693ea213e45fb1896ac9ffd2",
    ("knapsack_proportional", "two_type", '{"n": 7, "alpha": 1, "w0": 1, "w1": 0.5}'):
        "f027134210d38c8d86ba9fe26ba824a25d9770348fe7c6ef92704a94a649ea00",
    ("knapsack_general", "two_type", '{"n": 7, "alpha": 0}'):
        "d6d3110dff12416087b13e40788b16ba902930a690a807e5bc22d6050d1ffa63",
    ("knapsack_proportional", "adversarial", '{"n": 5, "epsilon": 1}'):
        "50716828818c5c3155b1e3984ec60e584ce023e978accea777a14fbf1514f4aa",
    ("string_guess", "two_type", '{"n": 6, "alpha": 1}'):
        "2f468bd1afefe2d3da46d2aeca9b84a00fdca5db9d3edadac0298475f29f494a",
    ("string_guess", "two_type", '{"n": 6, "alpha": 0}'):
        "5c70fd73201fe9f10dcc1fd6470fc8855b7dc079b961e620b7b446a47fac65ed",
}


def test_gen_output_is_frozen(tmp_path):
    out = tmp_path / "instances.jsonl"
    for (problem, family, params), want in GEN_DIGESTS.items():
        cli_stdout(["gen", "--problem", problem, "--family", family, "--params", params,
                    "--count", "3", "--seed", "11", "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, (problem, family, params)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_commands():
    """The ``rombit ...`` commands of the README's CLI block, with their
    backslash continuations joined."""
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line.strip() for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("rombit ")]


def test_readme_cli_commands_parse():
    commands = readme_cli_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for command in commands:
        words = shlex.split(command)
        args = parser.parse_args(words[1:])
        assert args.command == words[1], command


def test_readme_module_references_resolve():
    # a backticked `module.name` of a package module names something in it,
    # so a name deleted from the package cannot linger in the README
    modules = {m.name for m in pkgutil.iter_modules(rombit.__path__)}
    refs = [(module, name) for module, name in
            re.findall(r"`(\w+)\.(\w+)", README.read_text(encoding="utf-8"))
            if module in modules]
    assert len(refs) >= 5
    for module, name in refs:
        assert hasattr(importlib.import_module(f"rombit.{module}"), name), f"{module}.{name}"


def test_version_matches_pyproject():
    # read with a regex: tomllib is not in Python 3.10
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(
        encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert match, "pyproject.toml declares no [project] version"
    assert rombit.__version__ == match.group(1)
