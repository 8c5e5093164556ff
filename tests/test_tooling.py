"""The benchmark tracer patches names that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

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
