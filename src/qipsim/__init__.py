"""Interactive proof systems with quantum-finite-automaton verifiers."""

from .linalg import check_unitary, near_identity_power, qft_matrix
from .qfa import (BLANK, LEFT_END, RIGHT_END, HeadModel, QfaSpec, StructureMode,
                  ValidationReport, build_step_operator, check_structure,
                  validate_and_complete)
from .provers import (ClassicalProverTable, DenseProver, EraseAllProver,
                      IdentityProver, ProverStrategy, ScriptedProver,
                      TableProver, densify_schedule, sufficient_dense_cells)
from .runtime import (QipSystem, RunResult, count_interactions,
                      expected_halting_time, query_weight, run,
                      visible_schedule)
from .protocols import (BUILTIN, build_protocol, center_protocol,
                        eraser_protocol, la_mo_protocol, npfa_to_qip,
                        odd_protocol, pal_sharp_protocol, rfa_public_protocol,
                        union_protocol, upal_protocol, zero_public_protocol)
from .adversary import (AdversaryBudget, AdversaryReport, best_classical_prover,
                        replay, search_quantum_prover)
from .sweep import SweepRow, sweep, sweep_named
from .tiling import Tiling, TilingInstance, tiling_bound, tiling_complexity

__version__ = "0.1.0"
