"""Exact polyhedral geometry for convex and coconvex bodies.

Everything runs over the rationals: volumes, Minkowski sums, volume
polynomials, their quadratic forms, and the lifted-family identities that
reduce coconvex inequalities to convex ones.  No floats anywhere on a
verification path.
"""

__version__ = "0.1.0"

from .cones import (
    CoconvexBody,
    Cone,
    co_volume,
    cone_polyhedron,
    make_coconvex,
    make_cone,
    truncation_threshold,
)
from .errors import (
    CoconvexError,
    ComplementNotCompact,
    ComplementNotInCone,
    ConeMismatch,
    DimensionMismatch,
    EmptyInput,
    EmptyInterior,
    InvalidTruncation,
    NotFullDimensional,
    NotPointed,
    NotStrictlyConvex,
    UnboundedPolyhedron,
)
from .forms import (
    CoconvexFamily,
    ConvexFamily,
    af_form,
    co_af_form,
    co_combination_body,
    co_volume_polynomial,
    combination_body,
    cs_check,
    derivative_chain,
    form_apply,
    generalized_rbm_check,
    make_coconvex_family,
    make_convex_family,
    mink1_check,
    mink2_check,
    mixed_volume,
    polynomial_af_forms,
    reversed_bm_check,
    reversed_cs_check,
    volume_polynomial,
    volume_polynomial_interpolated,
)
from .harness import (
    ALL_SUITES,
    ExperimentConfig,
    SplitMix64,
    TrialReport,
    gen_coconvex_body,
    gen_coconvex_family,
    gen_cone,
    gen_convex_body,
    gen_convex_family,
    run_suite,
)
from .lift import (
    LiftedFamily,
    lift,
    lifted_body,
    lifted_volume_polynomial,
    quadratic_blocks,
    sector_constant,
    verify_identity_Q,
    verify_identity_V,
    verify_signature_argument,
)
from .polynomial import (
    HomogeneousPolynomial,
    Signature,
    fit_homogeneous,
    hessian_matrix,
    signature,
)
from .polytope import (
    Halfspace,
    Polyhedron,
    clip,
    contains,
    convex_hull,
    dd_convert,
    dd_convert_back,
    minkowski_sum,
    volume,
)
from .rational import RAT_BACKEND, Rat, rat, rat_str
