"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each qqldb module from outside:
module-level functions are replaced at every binding site (the defining
module and every qqldb module that imported the name, such as ``qqldb.qdb``
importing ``apply_oracle``), methods are replaced on their class.  A wrapper
records a span (name, start, end, parent span, statement id) only while a
statement runs, so checks made between statements leave no trace.  Spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _one_pass(counts, args, kwargs, result):
    counts["statevec.passes"] += 1
    counts["statevec.bytes_computed"] += 16 << args[0].num_qubits


def _tokens(counts, args, kwargs, result):
    counts["qlang.tokens"] += len(result)


def _statements(counts, args, kwargs, result):
    counts["qlang.statements"] += len(result)


def _table(counts, args, kwargs, result):
    counts["boolcirc.table_entries"] += result.bits.size


def _monomials(counts, args, kwargs, result):
    counts["boolcirc.monomials"] += len(result.monomials)


def _session_bytes(counts, args, kwargs, result):
    counts["cli.session_bytes"] += os.path.getsize(args[1])


def _sample(counts, args, kwargs, result):
    _one_pass(counts, args, kwargs, result)
    counts["statevec.shots"] += args[1]


def _decode(counts, args, kwargs, result):
    counts["schema.decode_calls"] += 1


QDB_OPERATORS = (
    "insert_bulk", "insert_sequential", "insert_values", "update", "select",
    "apply_where", "delete", "backup", "restore", "measure_records", "show_state",
)


def _targets():
    """(owner, attribute, span name or None for count-only, count hook)."""
    from qqldb import boolcirc, cli, diffusion, qdb, qlang, schema, statevec

    targets = [
        (qlang, "tokenize", None, _tokens),
        (qlang, "parse_text", "qlang.parse", _statements),
        (qlang, "compile_command", "qlang.bind", None),
        (cli.Session, "render_state", "cli.render", None),
        (cli.Session, "render_histogram", "cli.render", None),
        (cli.Session, "save_session", "cli.save", _session_bytes),
        (cli.Session, "load_session", "cli.load", None),
        (qdb.QdbState, "support", "qdb.support", None),
        (boolcirc, "truth_table", "boolcirc.table", _table),
        (boolcirc, "to_reed_muller", "boolcirc.reed_muller", _monomials),
        (boolcirc, "compile_to_cnots", "boolcirc.compile", None),
        (boolcirc, "apply_oracle", "boolcirc.oracle", _one_pass),
        (diffusion, "apply_partial_diffusion", "diffusion.apply", _one_pass),
        (statevec.StateVector, "apply_unitary", "statevec.gate", _one_pass),
        (statevec.StateVector, "apply_controlled", "statevec.gate", _one_pass),
        (statevec.StateVector, "apply_cnot", "statevec.cnot", _one_pass),
        (statevec.StateVector, "probability_of", "statevec.probability", _one_pass),
        (statevec.StateVector, "postselect", "statevec.postselect", _one_pass),
        (statevec.StateVector, "sample", "statevec.sample", _sample),
        (schema.TableSchema, "decode", None, _decode),
    ]
    targets += [(qdb.QdbState, op, f"qdb.{op}", None) for op in QDB_OPERATORS]
    return targets


def _qqldb_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "qqldb"]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.statement: int | None = None
        self._stack: list[int] = []
        self._originals: list = []
        self._undo: list = []

    def _wrap(self, fn, span, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.statement is None:
                return fn(*args, **kwargs)
            if span is None:
                result = fn(*args, **kwargs)
                count(tracer.counts, args, kwargs, result)
                return result
            stack = tracer._stack
            index = len(tracer.spans)
            record = [span, 0.0, 0.0, stack[-1] if stack else -1, tracer.statement]
            tracer.spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = _qqldb_modules()
        for owner, attr, span, count in _targets():
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, span, count)
            self._originals.append(original)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._originals.clear()

    def unwrapped_references(self) -> list[str]:
        """Binding sites that still hold an original, unwrapped function."""
        originals = {id(fn) for fn in self._originals}
        found = []
        for module in _qqldb_modules():
            for name, value in vars(module).items():
                if id(value) in originals:
                    found.append(f"{module.__name__}.{name}")
                if isinstance(value, type):
                    found += [
                        f"{module.__name__}.{name}.{attr}"
                        for attr, member in vars(value).items()
                        if id(member) in originals
                    ]
        return found

    # ------------------------------------------------------------ results

    def layer_totals(self) -> dict[str, float]:
        """Summed span durations, self time of the qdb operators, and counts."""
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[parent] += end - start
        qdb_self = sum(
            end - start - children[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name.startswith("qdb.")
        )
        totals = {
            "qlang.parse_s": busy["qlang.parse"],
            "qlang.bind_s": busy["qlang.bind"],
            "cli.render_s": busy["cli.render"],
            "cli.save_s": busy["cli.save"],
            "cli.load_s": busy["cli.load"],
            "qdb.self_s": qdb_self,
            "qdb.support_s": busy["qdb.support"],
            "qdb.support_calls": calls["qdb.support"],
            "boolcirc.table_s": busy["boolcirc.table"],
            "boolcirc.reed_muller_s": busy["boolcirc.reed_muller"],
            "boolcirc.oracle_s": busy["boolcirc.oracle"],
            "boolcirc.oracle_calls": calls["boolcirc.oracle"],
            "diffusion.apply_s": busy["diffusion.apply"],
            "diffusion.calls": calls["diffusion.apply"],
            "statevec.gate_s": busy["statevec.gate"],
            "statevec.gate_calls": calls["statevec.gate"],
            "statevec.cnot_s": busy["statevec.cnot"],
            "statevec.cnot_calls": calls["statevec.cnot"],
            "statevec.postselect_s": busy["statevec.postselect"],
            "statevec.sample_s": busy["statevec.sample"],
        }
        for name in ("qlang.statements", "qlang.tokens", "cli.session_bytes",
                     "boolcirc.table_entries", "boolcirc.monomials",
                     "statevec.shots", "statevec.passes", "statevec.bytes_computed",
                     "schema.decode_calls"):
            totals[name] = self.counts[name]
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tstatement\n")
            for name, start, end, parent, statement in self.spans:
                handle.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{statement}\n")
