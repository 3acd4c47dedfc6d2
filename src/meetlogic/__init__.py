"""Workbench for the meet-combination of two matrix logics: combined
signatures, tagged calculi, product-matrix semantics, admissibility decision
via component oracles, combined bases, and decomposition-tree machinery.
"""

from .syntax import (
    App,
    Ctor,
    Formula,
    ParseError,
    Signature,
    SignatureError,
    Var,
    apply_substitution,
    make_signature,
    match_formula,
    max_schema_index,
    parse_formula,
    print_formula,
)
from .combination import (
    CombinedSignature,
    PairCtor,
    combine_signatures,
    embed,
    proj_embedded,
    project,
    tag_rule,
)
from .calculus import (
    BuilderError,
    Calculus,
    Derivation,
    Rule,
    SearchBounds,
    assemble_meet_calculus,
    bounded_proof_search,
    build_both_admissible_derivation,
    build_vacuous_side_derivation,
    check_derivation,
)
from .semantics import (
    Matrix,
    SemanticsError,
    check_rule_soundness,
    entails,
    holds,
    product_matrix,
)
from .admissibility import (
    AdmissibilityOracle,
    Basis,
    BruteForceBounds,
    MeetDecision,
    brute_force_admissible,
    check_structural_completeness_sample,
    combined_basis,
    decide_admissible_meet,
    derivable_with_basis,
)
from .treetools import (
    CompletionProfile,
    IdentityProfile,
    TreeError,
    completion_formula,
    decomposition_tree,
    equalize_pair,
    transliterate_shape,
    trees_equiv,
)
from .presets import (
    KripkeFrame,
    LogicBundle,
    PresetError,
    combine_bundles,
    generate_frames,
    ipl_theorem,
    kripke_matrix,
    load_preset,
)

__version__ = "0.1.0"
