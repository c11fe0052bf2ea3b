"""The package names that perfbench/tracer.py wraps by name must keep existing.

`--trace 1` replaces each (module, attribute) of tracer.BINDINGS with a
timing wrapper and reads the kernel's `delay` argument by name, so removing
or renaming one of them breaks the benchmark's trace mode.  The tracer is
loaded by path and only inspected here, never installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attribute", [binding[:2] for binding in _load_tracer().BINDINGS])
def test_binding_resolves(module_name, attribute):
    module = importlib.import_module(f"quatlink.{module_name}")
    assert callable(getattr(module, attribute, None)), f"quatlink.{module_name}.{attribute}"


def test_kernel_takes_delay_by_name():
    from quatlink.adaptive import run_qlms_batch

    assert "delay" in inspect.signature(run_qlms_batch).parameters
