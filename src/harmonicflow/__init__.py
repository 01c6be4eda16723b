"""Numerical laboratory for the harmonic map energy on discretized closed
manifolds: tension fields, Hessian spectra, projected gradient flow, and
empirical gradient-inequality exponents."""

__version__ = "0.1.0"

from .targets import (  # noqa: F401
    CliffordTorus,
    EmbeddedTarget,
    TorusOfRevolution,
    UnitSphere,
    build_target,
)
from .meshes import (  # noqa: F401
    SourceMesh,
    build_circle,
    build_flat_torus,
    build_icosphere,
    build_source,
    l2_inner,
    laplace_beltrami_apply,
    lp_norm,
    sobolev_multiplication_probe,
    sobolev_norm,
)
from .fields import (  # noqa: F401
    MapField,
    TangentField,
    constant_map,
    degree_circle_map,
    identity_sphere_map,
    perturbed_constant_map,
    random_tangent_field,
)
from .energy import (  # noqa: F401
    HessianOperator,
    HessianSpectrum,
    energy,
    gradient_pairing_check,
    grad_l2_norm,
    hessian_apply,
    hessian_matrix,
    hessian_spectrum,
    tension,
    tension_fixed_chart,
    tension_via_sff,
)
from .charts import ChartReport, bilipschitz_estimate, chart_pull, chart_push  # noqa: F401
from .flow import FlowControl, FlowTrace, dissipation_check, run_flow  # noqa: F401
from .lojasiewicz import (  # noqa: F401
    ConvergenceVerdict,
    InequalityReport,
    LojasiewiczFit,
    MorseBottReport,
    convergence_classifier,
    fit_exponent,
    morse_bott_report,
    sample_neighborhood,
    validate_exponents,
    verify_inequality,
)
