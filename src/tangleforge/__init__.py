"""Tangles, closures, flowers, and partial k-trees for connectivity systems."""

from .bitset import elements_of, full_mask, mask_of
from .core import (ConnectivitySystem, GroundSet, RankFunction, Violation,
                   build_r8_rank, is_exactly_k_separating, is_k_separating,
                   is_vertically_k_connected, verify_connectivity_axioms)
from .closure import (Separation, TreeCompatibleSet, build_default_S,
                      enumerate_kS_separations, equivalent_one_sided,
                      equivalent_separations, full_closure, is_fully_closed,
                      is_sequential, validate_partial_k_sequence,
                      verify_tree_compatible)
from .errors import (DichotomyViolation, InvalidBreakpoints, NonRobustObstruction,
                     NotAFlowerVertex, NotAPartition, NotKSeparating,
                     PreconditionFailed, SearchSpaceTooLarge, TangleforgeError,
                     ViolationFound, WeakPetal)
from .flowers import (Flower, classify, concatenate, conforms_with_flower,
                      crossing_profile, displayed_kS, displayed_separations,
                      loose_petals, maximal_flower, phi_minimum_representative,
                      refine_with, tighten, verify_flower)
from .oracle import (OracleReport, differential_report, oracle_certify_tree,
                     oracle_classes, oracle_flowers, oracle_full_closure, s_order)
from .tangles import (Tangle, canonical_vertical_tangle, enumerate_tangles,
                      is_robust, verify_tangle)
from .trees import (PiTree, TreeVerdict, build_maximal_tree, conforms_with_tree,
                    displayed_by_edge, displayed_by_flower_vertex, extend_tree,
                    flower_to_tree, grow_terminal_bag, laminarity_check,
                    retarget_terminal_bag, split_terminal_bag,
                    verify_partial_kS_tree)

__all__ = [name for name in dir() if not name.startswith("_")]
