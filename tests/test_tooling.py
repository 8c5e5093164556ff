"""The benchmark tracer patches names that exist in the package, and the
README's CLI commands parse."""

import importlib
import importlib.util
import shlex
from pathlib import Path

from rombit.cli import build_parser

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patches = tracing.PATCHES + tracing.GENERATOR_PATCHES
    assert patches
    for _, home, fn, _ in patches:
        module = importlib.import_module(f"rombit.{home}")
        assert callable(getattr(module, fn, None)), f"rombit.{home}.{fn}"


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
