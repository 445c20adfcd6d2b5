"""qqldb benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload large-mix --seed 1 --seconds 20 --trace 0

Run from the root of a qqldb checkout.  Statements enter through the public
``qqldb.cli.Session`` (``execute_text``), and each statement is timed from
text in to output string out.  ``--trace 0`` measures with no
instrumentation installed and reports the end-to-end metrics; ``--trace 1``
measures the same rounds untraced and then traced, and reports the
per-layer metrics per round plus the tracing overhead.  Every output is
checked against a computation made apart from the engine (see
``workloads.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is nonzero
when a check fails.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 7
# Round index of the untimed warm-up round each run starts with: the first
# round of a process pays for heap growth that later rounds reuse.
WARM_UP = -1

# A fresh interpreter imports qqldb, opens a session, runs the workload's
# CREATE and exits; its CPU time is one set-up sample.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from qqldb.cli import Session
Session().execute_text(sys.argv[2])
print("ready", flush=True)
"""


class Harness:
    """Times statements, counts them and collects what the metrics need."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.busy = 0.0
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.faults: Counter = Counter()
        self.saved_bytes = 0
        self.saved_amps = 0

    def execute(self, session, text: str) -> str:
        from checks import CheckFailure, check_norm
        from qqldb.errors import QqlError

        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.statement = self.attempted
        wall = time.perf_counter()
        start = time.thread_time()
        try:
            (output,) = session.execute_text(text)
        except QqlError as exc:
            self.failed += 1
            raise CheckFailure(f"{text[:60]} raised {exc!r}") from exc
        finally:
            elapsed = time.thread_time() - start
            self.wall += time.perf_counter() - wall
            if tracer is not None:
                tracer.statement = None
        self.busy += elapsed
        self.latency[text.split(None, 1)[0].rstrip(";").upper()].append(elapsed)
        check_norm(session.db.state.amps)
        return output

    def fault(self, ok: bool, message: str) -> None:
        """An operation that fails because of a known fault in the engine."""
        if not ok:
            self.failed += 1
            self.faults[message] += 1

    def saved(self, size: int, amplitudes: int) -> None:
        self.saved_bytes += size
        self.saved_amps += amplitudes


def run_rounds(play, harness: Harness, seed: int, seconds: float | None, rounds: int | None) -> int:
    """Whole rounds until ``seconds`` of wall time pass, or exactly ``rounds``."""
    start = time.perf_counter()
    index = 0
    while True:
        play(harness, seed, index)
        index += 1
        if rounds is not None:
            if index == rounds:
                return index
        elif time.perf_counter() - start >= seconds:
            return index


def cpu_of_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(create: str, env: dict) -> list[float]:
    """CPU time (user + system, all threads) of fresh interpreters that each
    import qqldb, open a session, run the workload's CREATE and exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = cpu_of_children()
        probe = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(ROOT / "src"), create],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, check=False,
        )
        if probe.stdout.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
        samples.append(cpu_of_children() - before)
    return samples


def tail(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples)
    best = None
    for name, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        if len(ordered) >= 40 and len(ordered) * (1 - q) >= 10:
            best = (name, ordered[min(len(ordered) - 1, int(q * len(ordered)))])
    return best


def end_to_end(h: Harness, setup: list[float], rounds: int) -> dict:
    """The gated metrics; per-kind statement times go to standard error."""
    print(f"rounds {rounds}, statements {h.attempted}, busy {h.busy:.3f} s CPU, "
          f"{h.wall:.3f} s wall ({h.attempted / h.wall:.2f} stmt/s by wall time), "
          f"set-up samples {[round(s, 4) for s in setup]}", file=sys.stderr)
    for kind, samples in sorted(h.latency.items()):
        extra = tail(samples)
        extra_text = f", {extra[0]} {extra[1] * 1e3:.4f} ms" if extra else ""
        print(f"  {kind:<8} n={len(samples):<6} median {statistics.median(samples) * 1e3:.4f} ms"
              f"{extra_text}", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "stmt_per_s": (h.attempted / h.busy, "stmt/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "save_bytes_per_amp": (h.saved_bytes / h.saved_amps, "B/amp"),
    }


def traced(play, seed: int, seconds: float, work: Path, workload: str,
           plain: Harness, with_trace: Harness) -> dict:
    """Untraced rounds for half the time, then the same rounds traced."""
    play(Harness(), seed, WARM_UP)
    rounds = run_rounds(play, plain, seed, seconds / 2, None)
    tracer = with_trace.tracer
    tracer.install()
    try:
        run_rounds(play, with_trace, seed, None, rounds)
    finally:
        tracer.uninstall()
    tracer.write(str(work / f"spans-{workload}.tsv"))
    metrics = {}
    for name, value in tracer.layer_totals().items():
        unit = "s/round" if name.endswith("_s") else (
            "B/round" if "bytes" in name else "1/round")
        metrics[name] = (value / rounds, unit)
    metrics["trace.overhead_s"] = ((with_trace.busy - plain.busy) / rounds, "s/round")
    print(f"rounds {rounds}, untraced busy {plain.busy:.3f} s, traced busy "
          f"{with_trace.busy:.3f} s, {len(tracer.spans)} spans", file=sys.stderr)
    return metrics


def bootstrap() -> bool:
    """Check for a qqldb checkout, cap BLAS threads at the core count before
    numpy loads, and make qqldb, tests/refmodel.py and this directory
    importable."""
    if not (ROOT / "src" / "qqldb" / "cli.py").is_file() or not (
        ROOT / "tests" / "refmodel.py"
    ).is_file():
        print(f"error: no qqldb checkout at {ROOT} (need src/qqldb and tests/refmodel.py)",
              file=sys.stderr)
        return False
    cores = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = cores
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]
    os.chdir(ROOT)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not bootstrap():
        return 2
    from checks import CheckFailure
    from workloads import WORK_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    play, create = WORKLOADS[args.workload]
    work = ROOT / WORK_DIR
    work.mkdir(parents=True, exist_ok=True)

    from tracing import Tracer

    harnesses = [Harness(), Harness(Tracer())] if args.trace else [Harness()]
    correct = True
    try:
        if args.trace:
            metrics = traced(play, args.seed, args.seconds, work, args.workload, *harnesses)
        else:
            setup = measure_setup(create, dict(os.environ))
            play(Harness(), args.seed, WARM_UP)
            rounds = run_rounds(play, harnesses[0], args.seed, args.seconds, None)
            metrics = end_to_end(harnesses[0], setup, rounds)
    except CheckFailure as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    for h in harnesses:
        for message, count in h.faults.items():
            print(f"known fault, {count} failed: {message}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": sum(h.attempted for h in harnesses),
        "failed": sum(h.failed for h in harnesses),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<26} {value:>16.6f} {unit}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
