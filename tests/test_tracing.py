"""The benchmark tracer (``benchmarks/tracing.py``) wraps package functions
by module and attribute name.  Every name it wraps must still exist, and
uninstalling it must put each original back, so a rename that drops a
traced name fails here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import miltransfer
import miltransfer.cli

TRACING = Path(__file__).parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracing = _load_tracing()
    places = sorted({place for places in tracing.LAYERS.values() for place in places})
    before = {place: getattr(getattr(miltransfer, place[0]), place[1]) for place in places}
    commands = dict(miltransfer.cli.COMMANDS)
    tracer = tracing.Tracer("t")
    try:
        tracer.install(miltransfer)
        unwrapped = [f"{mod}.{attr}" for (mod, attr), fn in before.items()
                     if getattr(getattr(miltransfer, mod), attr).__wrapped__ is not fn]
        assert not unwrapped
        assert miltransfer.cli.COMMANDS["transfer"] is not commands["transfer"]
    finally:
        tracer.uninstall()
    moved = [f"{mod}.{attr}" for (mod, attr), fn in before.items()
             if getattr(getattr(miltransfer, mod), attr) is not fn]
    assert not moved
    assert miltransfer.cli.COMMANDS == commands
