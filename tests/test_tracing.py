"""The benchmark's tracer still finds every layer function it wraps.

``perfbench/tracing.py`` wraps qqldb functions and methods by name; a renamed
or moved one makes ``install`` fail or leaves a binding site unwrapped.  The
tracer is loaded from its file and installed and uninstalled here; nothing
under ``perfbench/`` is changed.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_binding_site():
    tracing = load_tracing()
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing._targets()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_references() == []
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
