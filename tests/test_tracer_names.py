"""perfbench's trace mode names the functions it wraps as strings, which
the dead-code scan cannot see: each must resolve in its tenfold module,
or ``perfbench/run.py --trace 1`` stops with an AttributeError."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402


def test_every_traced_name_resolves():
    for mod, names in tracer.TRACED.items():
        module = importlib.import_module(f"tenfold.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"


def test_sizes_fits_and_counters_name_traced_functions():
    assert set(tracer.SIZES) <= set(tracer.FUNCTIONS)
    for fit, span in tracer.FITS.items():
        assert span in tracer.FUNCTIONS and fit.startswith(span + ".")
    assert {span for _, span, _ in tracer.COUNTERS} <= set(tracer.FUNCTIONS)


def _bindings():
    """{(module, attribute): value} over every tenfold module."""
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "tenfold" or name.startswith("tenfold.")
            for attr, value in vars(module).items()}


def test_install_wraps_every_binding_and_uninstall_restores_it():
    import tenfold.cli  # noqa: F401  (every module that binds a name)
    traced = {id(getattr(importlib.import_module(f"tenfold.{mod}"), name))
              for mod, names in tracer.TRACED.items() for name in names}
    before = _bindings()
    wrapped = {key for key, value in before.items() if id(value) in traced}
    rec = tracer.Tracer()
    rec.install()
    try:
        during = _bindings()
        assert {key for key in before if during[key] is not before[key]} \
            == wrapped
        assert len(wrapped) >= len(traced)
    finally:
        rec.uninstall()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
