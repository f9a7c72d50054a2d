"""The names `import semifree` exports, listed by hand, so that adding,
renaming or removing one shows up in the diff of this test."""

import types

import semifree

EXPORTED = [
    "CubeClass",
    "FixedPoint",
    "FixedPointData",
    "GradedQuotient",
    "IdealPresentation",
    "RestrictionAssignment",
    "Term",
    "alpha_class",
    "beta_class",
    "betti_by_counting",
    "consistency_check",
    "counts",
    "equivariant_chern_series",
    "euler_class",
    "express_in_basis",
    "gamma_restrictions",
    "graded_quotient",
    "hypercube_data",
    "injectivity_rank_check",
    "integrate",
    "poincare_check",
    "predict_counts",
    "presentation_from_data",
    "reduced_chern_series",
    "rep_chern_classes",
    "restrict_class",
    "run_pipeline",
    "search_candidates",
    "smith_normal_form",
    "split_by_moment_sign",
    "verify_moment_equations",
]


def test_exported_names():
    # submodules are attributes of the package too, but are not exports
    names = sorted(
        name for name, value in vars(semifree).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == EXPORTED
