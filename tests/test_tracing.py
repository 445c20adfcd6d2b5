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


def test_backup_records_every_layer_span():
    # the per-layer metrics read these spans; an engine path that stops going
    # through a wrapped name would read 0 there without saving anything
    from qqldb.cli import Session

    tracer = load_perfbench("tracing").Tracer()
    tracer.install()
    try:
        session = Session()
        session.execute_text("CREATE TABLE t (id:2) TEMP 1; INSERT ALL 2;")
        tracer.statement = 1
        session.execute_text("BACKUP WHERE id = 3;")
        tracer.statement = None
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    for expected in ("qlang.parse", "qlang.bind", "qdb.backup", "qdb.support",
                     "boolcirc.table", "boolcirc.oracle", "diffusion.apply"):
        assert expected in names


def test_benchmark_selftest_tracer_binding(monkeypatch):
    # the self-test imports its siblings by module name
    monkeypatch.syspath_prepend(str(PERFBENCH))
    load_perfbench("selftest").check_tracer_binding()


def play_round(tmp_path, monkeypatch, workload: str):
    """One round of a benchmark workload; returns its harness."""
    # the workloads import their checks by module name and save under
    # perfbench/out relative to the working directory
    monkeypatch.syspath_prepend(str(PERFBENCH))
    (tmp_path / "perfbench" / "out").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    run, workloads = load_perfbench("run"), load_perfbench("workloads")
    harness = run.Harness()
    getattr(workloads, workload)(harness, 7, 0)
    return harness


def test_write_chain_round_has_no_failed_statement(tmp_path, monkeypatch):
    harness = play_round(tmp_path, monkeypatch, "write_chain")
    assert harness.attempted == 17
    assert harness.failed == 0, dict(harness.faults)


def test_large_mix_round_has_no_failed_statement(tmp_path, monkeypatch):
    # LOAD, INSERT, BACKUP and DELETE at 2^21 amplitudes
    harness = play_round(tmp_path, monkeypatch, "large_mix")
    assert harness.attempted == 13
    assert harness.failed == 0, dict(harness.faults)
