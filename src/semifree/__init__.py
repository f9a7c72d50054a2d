"""Exact localization computations for semifree circle actions with
isolated fixed points: integration over fixed points, forced fixed-point
counts, the model ring of a product of two-spheres, the deduction pipeline
identifying points with subsets, and the cohomology of reductions.
"""

from .algebra import Term, smith_normal_form
from .cube import (
    CubeClass,
    alpha_class,
    beta_class,
    equivariant_chern_series,
    express_in_basis,
    hypercube_data,
    injectivity_rank_check,
    restrict_class,
)
from .fixed_points import (
    FixedPoint,
    FixedPointData,
    counts,
    split_by_moment_sign,
)
from .localization import (
    RestrictionAssignment,
    consistency_check,
    euler_class,
    gamma_restrictions,
    integrate,
    predict_counts,
    rep_chern_classes,
    search_candidates,
    verify_moment_equations,
)
from .pipeline import run_pipeline
from .reduction import (
    GradedQuotient,
    IdealPresentation,
    betti_by_counting,
    graded_quotient,
    poincare_check,
    presentation_from_data,
    reduced_chern_series,
)

__version__ = "0.1.0"
