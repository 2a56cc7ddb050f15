"""Every function the benchmark's tracer wraps must still exist.

bench/tracing.py wraps fedsln functions by name and raises MissingTarget
when one is gone, which fails the traced benchmark run. This test loads
the tracer by path and installs it, so a rename fails here first.
"""

import importlib.util
from pathlib import Path

import fedsln.cli  # noqa: F401  the benchmark imports these before tracing
import fedsln.experiment  # noqa: F401
import fedsln.neural

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    gradient = fedsln.neural.gradient
    tracer = load_tracing().Tracer()
    tracer.install()  # raises MissingTarget naming every missing name
    try:
        assert fedsln.neural.gradient is not gradient
    finally:
        tracer.uninstall()
    assert fedsln.neural.gradient is gradient
