"""qqldb: a quantum database engine.

Records are basis states of a simulated register; INSERT, UPDATE, DELETE,
SELECT-and-apply, BACKUP and RESTORE are realised as reversible circuits
(oracles, controlled gates, partial diffusion) plus post-selective
measurement, driven by a small SQL-like query language and a shell.
"""

from .boolcirc import (
    And,
    BoolExpr,
    Comparison,
    Const,
    Not,
    Or,
    ReedMullerForm,
    TruthTable,
    Var,
    apply_oracle,
    compile_to_cnots,
    to_reed_muller,
    truth_table,
)
from .cli import Session, SessionConfig, main, repl_loop, run_script
from .diffusion import apply_partial_diffusion
from .errors import (
    ArgumentError,
    CapacityError,
    CompileError,
    ImpossibleOutcomeError,
    QqlError,
    QqlSyntaxError,
    SchemaError,
    SessionFormatError,
    ValidationError,
)
from .gates import HADAMARD, NOT, CnotGate, GateMatrix, is_unitary
from .qdb import ApplyGate, ApplySwap, QdbState
from .qlang import parse_text, render_command, render_expr, tokenize
from .schema import Record, TableSchema
from .statevec import StateVector, Xorshift64Star

__version__ = "0.1.0"
