"""Numerical potential theory for almost complex structures in local
coordinates: intrinsic hessian algebra, psh membership, the Monge-Ampere
Dirichlet solver, linear-potential equivalences and metric comparisons."""

from .algebra import (
    AlmostComplexField,
    complexify,
    hermitian_part,
    make_structure,
    pullback,
    real_hessian,
    realify,
    standard_j,
)
from .dirichlet import (
    DirichletProblem,
    SchemeOptions,
    SolveReport,
    comparison_check,
    maximality_check,
    solve,
)
from .lattice import (
    LatticeDomain,
    ScalarField,
    directional_second,
    export_csv,
    fd_jet,
    import_csv,
    upwind_first,
)
from .linpot import (
    BallReplacement,
    LinearOperator,
    TransposedBump,
    ViscosityScheme,
    classical_subharmonic,
    distributional_pairing,
    ess_usc_regularize,
    harmonic_replacement,
    viscosity_subharmonic,
)
from .metrics import (
    HermitianMetric,
    example95_report,
    hermitian_hessian,
    mean_curvature,
    riemannian_hessian,
)
from .psh import (
    MarginContext,
    OperatorFamily,
    SliceRestriction,
    blaplacian,
    family_verdict,
    margin_verdict,
    psh_margin,
    psh_via_blaplacians,
    restriction_check,
    restriction_verdict,
    slice_compatible,
)
from .subeq import (
    ReducedJet,
    Subequation,
    constant_rhs,
    contains,
    dual_contains,
    positivity_closed,
    strict_contains,
)

__version__ = "0.1.0"
