"""Verification toolkit for the presented path-space product algebras.

Two independent routes are built and compared: a rewriting-system model
of the presented algebras (orientation, truncated completion, bigraded
normal-form counts) and closed-form homology tables assembled from the
projective base and its unit tangent bundle.  A numerical geometry
layer checks the metric inputs behind the presentation: half-circle
norms, minimum-energy concatenation, and discrete index/nullity of the
critical geodesics.
"""

from .algebra import (
    AlphabetError,
    MonomialOrder,
    Relation,
    Signature,
    default_order,
    defining_relations,
    poly,
    poly_add,
    poly_mul,
    reverse_poly,
    reverse_word,
    signature,
    unshifted_degree,
    word_degree,
    word_level,
)
from .tables import BigradedDimTable, CheckItem, CheckReport
from .rewriting import (
    Augmentation,
    CompletionError,
    ComparisonReport,
    InsufficientWeightBoundError,
    OrderRejectedError,
    RepairError,
    RewriteRule,
    RewriteSystem,
    TruncationError,
    anti_automorphism_check,
    apply_rule,
    compare,
    complete,
    filtration_check,
    heredity_check,
    hilbert,
    irreducible_words,
    normal_form,
    orient,
    repair_search,
    required_weight_bound,
)
from .homology import (
    COEFF_F2,
    COEFF_PULLBACK,
    COEFF_TWISTED,
    COEFF_Z,
    AbelianGroup,
    BigradedGroupTable,
    CoefficientError,
    GeneratorTable,
    GradedDimTable,
    GradedGroupTable,
    block_local_system,
    consistency_checks,
    generator_table,
    path_space_homology,
    real_proj_homology,
    stable_ranks,
    uct_f2,
    unit_tangent_homology,
)
from .geometry import (
    DiscretePath,
    GradientCheckError,
    IndexResult,
    ParityError,
    ProjPoint,
    TangentVector,
    concat_check,
    concat_min,
    constant_path,
    critical_index,
    expected_index,
    fs_distance,
    geodesic,
    half_circle,
    half_circle_endpoint,
    half_circle_norm,
    halfcircle_check,
    hopf_vector,
    index_check,
    path_energy,
    path_length,
    path_norm,
    proj_point,
    random_real_point,
    random_real_tangent,
    real_point,
    sample_yk,
    yk_check,
    yk_parameter_count,
)

__version__ = "0.1.0"
