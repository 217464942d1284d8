"""amalgam-lab: computational Bass-Serre theory at desk scale.

Build fundamental groups of graphs of groups with finite edge groups, construct
finite portions of Bass-Serre trees and Cayley graphs, verify coarse-separation
lemmas empirically, and check dense-amalgam properties of finite-depth boundary
approximations.
"""

from .bass_serre import TreeBall, TreeBallConfig, tiling_tree
from .boundary import (
    BoundaryApprox,
    amalgam_check,
    boundary_approx,
    branch_density_check,
    cantor_check,
    classify_direction,
    limit_set_approx,
    limit_set_family,
)
from .dsl import gog_from_json, gog_to_json, parse_gog
from .fundgroup import (
    CayleyBall,
    FundamentalGroup,
    NormalForm,
    Presentation,
    abelianization,
    emit_presentation,
)
from .gog import (
    GraphOfGroups,
    SpanningData,
    elementary_collapse,
    is_non_elementary,
    spanning_tree,
)
from .groups import EdgeEmbedding, FiniteGroup, check_group, check_monomorphism, cosets
from .separation import (
    SeparationReport,
    ends_estimate,
    r_components,
    r_separates,
    verify_K_construction,
    verify_cayley_separation,
    verify_thickening_lemma,
)

__version__ = "0.1.0"

__all__ = [
    "TreeBall", "TreeBallConfig", "tiling_tree",
    "BoundaryApprox", "amalgam_check", "boundary_approx",
    "branch_density_check", "cantor_check", "classify_direction",
    "limit_set_approx", "limit_set_family",
    "gog_from_json", "gog_to_json", "parse_gog",
    "FundamentalGroup", "NormalForm", "Presentation",
    "abelianization", "emit_presentation",
    "GraphOfGroups", "SpanningData", "elementary_collapse",
    "is_non_elementary", "spanning_tree",
    "EdgeEmbedding", "FiniteGroup", "check_group", "check_monomorphism", "cosets",
    "CayleyBall", "SeparationReport", "ends_estimate", "r_components",
    "r_separates", "verify_K_construction", "verify_cayley_separation",
    "verify_thickening_lemma",
]
