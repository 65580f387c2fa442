"""Learn fixed-size NFAs from labeled word samples through SAT.

The pipeline: parse a sample, encode the inference problem as CNF under one
of four models (direct, prefix, suffix, hybrid), optionally optimize the
hybrid model's per-word split points, solve, then decode and verify the
resulting automaton.
"""

from .cnf import CnfInstance, dimacs_text, parse_dimacs, write_dimacs
from .encoders import (
    BudgetExceededError,
    ModelKind,
    SizeEstimate,
    encode,
    estimate_size,
)
from .nfa import Nfa, accepts, nfa_to_dot, nfa_to_json, verify
from .sample import (
    Sample,
    SampleError,
    SplitAssignment,
    Word,
    parse_sample,
    format_sample,
)
from .solver import (
    SolveOutcome,
    decode_nfa,
    solve_external,
    solve_in_process,
)
from .splitopt import (
    GaParams,
    IlsParams,
    OptResult,
    fitness,
    ga_optimize,
    ils_optimize,
    word_weights,
)

__version__ = "0.1.0"
