"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a qqldb checkout.  It checks that

* the tracer replaces every binding site of a wrapped function (no qqldb
  module keeps a reference to an unwrapped original), records spans only
  inside statements, and restores the originals when uninstalled;
* one round of each workload passes its checks untouched;
* each check rejects a corrupted output: an amplitude's sign flipped
  before SAVE, a reported DELETE probability perturbed, one MEASURE count
  shifted.

Exit code 0 when every case passes.
"""

from __future__ import annotations

import re
import sys

import run

CORRUPTIONS = {
    # corruption: (statement kind it targets, text the rejecting check reports)
    "sign-before-save": ("SAVE", "saved amplitudes differ"),
    "delete-probability": ("DELETE", "printed probability"),
    "measure-count": ("MEASURE", "histogram differs"),
}
MAX_ROUNDS = 50


class Tampering(run.Harness):
    """Corrupts the first statement of the targeted kind, then runs on."""

    def __init__(self, corruption: str):
        super().__init__()
        self.corruption = corruption
        self.applied = False

    def execute(self, session, text: str) -> str:
        import numpy as np
        from checks import printed_probability

        kind = text.split(None, 1)[0].rstrip(";").upper()
        target = CORRUPTIONS[self.corruption][0]
        hit = not self.applied and kind == target and "AMPLIFY" not in text
        if hit and self.corruption == "sign-before-save":
            amps = session.db.state.amps
            first = np.flatnonzero(amps)[0]
            amps[first] = -amps[first]
        output = super().execute(session, text)
        if hit and self.corruption == "delete-probability":
            value = printed_probability(output)
            output = output.replace(f"{value:.6f}", f"{value + (1e-3 if value < 0.5 else -1e-3):.6f}")
        if hit and self.corruption == "measure-count":
            lines = output.split("\n")
            lines[1] = re.sub(r"(\)\s+)(\d+)", lambda m: f"{m[1]}{int(m[2]) + 1}", lines[1], count=1)
            output = "\n".join(lines)
        self.applied |= hit
        return output


def require(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def check_tracer_binding() -> None:
    import qqldb
    from qqldb import boolcirc, diffusion, qdb, qlang
    from qqldb.cli import Session
    from tracing import Tracer

    imported = ("apply_oracle", "truth_table", "to_reed_muller", "compile_to_cnots",
                "apply_partial_diffusion")
    originals = [getattr(qdb, name) for name in imported] + [qlang.parse_text]
    tracer = Tracer()
    tracer.install()
    try:
        leftover = tracer.unwrapped_references()
        require(not leftover, f"unwrapped references remain: {leftover}")
        bound = [getattr(qdb, name) for name in imported] + [qqldb.parse_text]
        require(all(b is not o for b, o in zip(bound, originals)), "a binding site kept its original")
        require(qdb.apply_oracle is boolcirc.apply_oracle
                and qdb.apply_partial_diffusion is diffusion.apply_partial_diffusion,
                "defining module and qqldb.qdb hold different wrappers")
        session = Session()
        session.execute_text("CREATE TABLE t (id:2) TEMP 1; INSERT ALL 2;")
        require(not tracer.spans, "spans recorded outside a statement")
        tracer.statement = 1
        session.execute_text("BACKUP WHERE id = 3;")
        tracer.statement = None
        names = {span[0] for span in tracer.spans}
        for expected in ("qlang.parse", "qlang.bind", "qdb.backup", "qdb.support",
                         "boolcirc.table", "boolcirc.oracle", "diffusion.apply"):
            require(expected in names, f"no {expected} span for BACKUP (got {sorted(names)})")
    finally:
        tracer.uninstall()
    restored = [getattr(qdb, name) for name in imported] + [qqldb.parse_text]
    require(all(r is o for r, o in zip(restored, originals)), "uninstall left a wrapper bound")


def check_clean_round(name: str) -> None:
    from workloads import WORKLOADS

    WORKLOADS[name][0](run.Harness(), 1, 0)


def check_rejects(name: str, corruption: str) -> None:
    from checks import CheckFailure
    from workloads import WORKLOADS

    play = WORKLOADS[name][0]
    harness = Tampering(corruption)
    needle = CORRUPTIONS[corruption][1]
    for index in range(MAX_ROUNDS):
        try:
            play(harness, 1, index)
        except CheckFailure as exc:
            require(harness.applied, f"check failed before the corruption: {exc}")
            require(needle in str(exc), f"rejected by the wrong check: {exc}")
            return
        require(not harness.applied, "corrupted output was accepted")
    raise AssertionError(f"no {CORRUPTIONS[corruption][0]} statement in {MAX_ROUNDS} rounds")


def main() -> int:
    if not run.bootstrap():
        return 2
    from workloads import WORK_DIR, WORKLOADS

    (run.ROOT / WORK_DIR).mkdir(parents=True, exist_ok=True)

    cases = [("tracer binding sites", check_tracer_binding, ())]
    for name in WORKLOADS:
        cases.append((f"{name}: clean round passes", check_clean_round, (name,)))
        for corruption in CORRUPTIONS:
            cases.append((f"{name}: {corruption} rejected", check_rejects, (name, corruption)))
    failures = 0
    for title, case, args in cases:
        try:
            case(*args)
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {title}: {exc}")
        else:
            print(f"ok   {title}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
