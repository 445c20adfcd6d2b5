"""The benchmark's code still works against the engine.

``perfbench/tracing.py`` wraps qqldb functions and methods by name; a renamed
or moved one makes ``install`` fail or leaves a binding site unwrapped.  The
workloads in ``perfbench/workloads.py`` check every statement's output and
count a known engine fault as a failed statement.  The benchmark's files are
loaded from their paths and run here; nothing under ``perfbench/`` is
changed.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_binding_site():
    tracing = load_perfbench("tracing")
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing._targets()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_references() == []
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_write_chain_round_has_no_failed_statement(tmp_path, monkeypatch):
    # the workloads import their checks by module name and save under
    # perfbench/out relative to the working directory
    monkeypatch.syspath_prepend(str(PERFBENCH))
    (tmp_path / "perfbench" / "out").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    run, workloads = load_perfbench("run"), load_perfbench("workloads")
    harness = run.Harness()
    workloads.write_chain(harness, 7, 0)
    assert harness.attempted == 17
    assert harness.failed == 0, dict(harness.faults)
