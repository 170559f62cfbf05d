"""Verification toolkit for the presented path-space product algebras.

Two independent routes are built and compared: a rewriting-system model
of the presented algebras (orientation, completion, bigraded
normal-form counts) and closed-form homology tables assembled from the
projective base and its unit tangent bundle.  A numerical geometry
layer checks the metric inputs behind the presentation: half-circle
norms, minimum-energy concatenation, and discrete index/nullity of the
critical geodesics.
"""

from .algebra import (
    AlphabetError,
    GradingError,
    RewriteRule,
    Signature,
    defining_relations,
    leading_word,
    order_key,
    poly,
    poly_mul,
    reverse_poly,
    signature,
    unshifted_degree,
    word_degree,
    word_level,
    word_weight,
)
from .tables import BigradedSeries, BigradedTable, CheckItem, CheckReport
from .rewriting import (
    Augmentation,
    CompletionError,
    ComparisonReport,
    OrderRejectedError,
    RepairError,
    RewriteSystem,
    RuleLimitError,
    SearchCapError,
    StepLimitError,
    anti_automorphism_check,
    compare,
    complete,
    filtration_check,
    heredity_check,
    hilbert,
    hilbert_series,
    normal_form,
    orient,
    repair_search,
)
from .homology import (
    COEFF_F2,
    COEFF_PULLBACK,
    COEFF_TWISTED,
    COEFF_Z,
    AbelianGroup,
    CoefficientError,
    block_local_system,
    block_systems,
    consistency_checks,
    generator_table,
    path_space_homology,
    path_space_series,
    real_proj_homology,
    stable_ranks,
    uct_f2,
    unit_tangent_homology,
)

# The geometry layer needs numpy and the algebra never does, so its
# exports load pathalg.geometry on first use (PEP 562).
_GEOMETRY = (
    "DiscretePath", "GradientCheckError", "HessianSizeError", "IndexResult",
    "ParityError", "ProjPoint", "TangentVector", "concat_check", "concat_min",
    "constant_path", "critical_index", "fs_distance", "geodesic",
    "half_circle", "half_circle_endpoint", "half_circle_norm",
    "halfcircle_check", "hopf_vector", "index_check", "path_energy",
    "path_length", "path_norm", "proj_point", "random_real_point",
    "random_real_tangent", "real_point", "sample_yk", "yk_check",
    "yk_parameter_count",
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name != "geometry" and name not in _GEOMETRY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not "from . import geometry": the fromlist check
    # would call this hook again
    import importlib
    geometry = importlib.import_module(".geometry", __name__)
    # bind every export at once, so that the package namespace holds
    # them all from the first use on
    globals().update((attr, getattr(geometry, attr)) for attr in _GEOMETRY)
    return geometry if name == "geometry" else globals()[name]


def __dir__():
    return sorted({*globals(), *_GEOMETRY, "geometry"})
