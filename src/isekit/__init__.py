"""Equivalence checking and SE-condition discovery for ground logic programs."""

from .program import (Universe, Rule, Program, ProgramTuple,
                      parse_program, render_program, render_rule,
                      concat_tuple, ParseError, MixedUniverseError)
from .semantics import (Semantics, HTInterpretation, satisfies, gl_reduct,
                        lpmln_reduct, stable_models, weight_degree,
                        ht_satisfies, ht_models, equivalent,
                        CapExceededError, MissingWeightError)
from .isets import (ISCondition, locals_from_name, extract_isets,
                    reconstruct_tuple, canonical_tuple, make_condition,
                    ShapeMismatchError)
from .transforms import (TransformKind, PreservationClass, apply_transform,
                         preservation_class, TransformGuardError,
                         UnknownAtomError, FreshAtomCollisionError)
from .discovery import (SearchReport, RunConfig, base_name_universe,
                        verify_and_compute_mgse, discover, KNOWN_COUNTS)
from .simplify import (Clique, SimplifiedCondition, SimplifyResult,
                       sis_irrelevant_partition, find_max_cliques, simplify,
                       condition_holds, sim_holds)

__version__ = "0.1.0"
