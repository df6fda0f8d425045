"""Exact outcome solving for lattice games on N^d, and a compiler realising
lattice recurrences (including 1-D cellular automata) as nor circuits placed
in Z^2 whose induced game outcomes compute the recurrence."""

from .circuits import NorCircuit, eval_circuit, extend_circuit, synthesize_nor_circuit
from .compiler import (
    CompiledGame,
    Placement,
    check_conditions,
    compile_recurrence,
    emit_ruleset,
    search_placement,
    verify_construction,
)
from .engine import (
    GameSpec,
    OutcomeGrid,
    PointednessWitness,
    Ruleset,
    Solver,
    check_pointedness,
    check_tangent_cone,
    equivalence_in_window,
    periodicity_probe,
)
from .lattice import LatticeSet, ModuleIdeal, Sublattice, enumerate_F, parse_set_expr
from .recurrence import (
    CAEmbedding,
    Encoding,
    RecurrenceSpec,
    binom_parity_oracle,
    ca_to_recurrence,
    eval_recurrence,
    simulate_ca,
    validate_encoding,
    wolfram_rule_table,
)
from .render import render_grid

__version__ = "0.1.0"
