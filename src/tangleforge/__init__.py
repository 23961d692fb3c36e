"""Tangles, closures, flowers, and partial k-trees for connectivity systems."""

from .bitset import elements_of, full_mask, mask_of
from .core import (ConnectivitySystem, RankFunction, Violation, build_r8_rank,
                   is_vertically_k_connected, verify_connectivity_axioms)
from .closure import (Separation, TreeCompatibleSet, build_default_S,
                      enumerate_kS_separations, equivalent_separations, full_closure,
                      is_fully_closed, is_sequential, verify_tree_compatible)
from .errors import (DichotomyViolation, InvalidBreakpoints, NonRobustObstruction,
                     NotAPartition, NotKSeparating, PreconditionFailed,
                     SearchSpaceTooLarge, TangleforgeError, ViolationFound, WeakPetal)
from .flowers import (Flower, classify, concatenate, conforms_with_flower,
                      displayed_kS, displayed_separations, loose_petals,
                      maximal_flower, refine_with, tighten, verify_flower)
from .oracle import (OracleReport, differential_report, oracle_certify_tree,
                     oracle_classes, oracle_flowers, oracle_full_closure)
from .tangles import (Tangle, canonical_vertical_tangle, enumerate_tangles,
                      is_robust, verify_tangle)
from .trees import (PiTree, TreeVerdict, build_maximal_tree, extend_tree,
                    flower_to_tree, grow_terminal_bag, retarget_terminal_bag,
                    split_terminal_bag, verify_partial_kS_tree)

__all__ = [name for name in dir() if not name.startswith("_")]
