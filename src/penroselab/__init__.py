"""Numerical laboratory for mass inequalities on rotationally symmetric,
conformally flat, asymptotically flat metrics.

The central object is a radial conformal factor u representing the metric
u^{4/(n-2)} (dr^2 + r^2 g_{S^{n-1}}).  On top of that the package computes
curvature and sphere geometry, total and Hawking masses with the
mass-vs-area-infimum verdict, prescribed-curvature bubbles with their
horizon-approaching and shrinking-curvature schedules, and the blended
cylinder-to-Schwarzschild example that is mean-convex everywhere yet has a
positive radial area infimum.
"""

from .bubbles import (
    DiameterReport,
    HorizonSequenceResult,
    HorizonStep,
    MuBubbleProblem,
    MuBubbleSolution,
    PrescribedMeanCurvature,
    RigidityStep,
    RigidityTrace,
    build_problem,
    choose_beta,
    diameter_report,
    dist_to_anchor,
    functional_eval,
    halving_schedule,
    horizon_sequence,
    minimize,
    rigidity_iteration,
    select_beta,
)
from .errors import (
    BarrierError,
    ConfigError,
    DegenerateMinimizerError,
    DomainError,
    EpsilonTooLargeError,
    NotAsymptoticallyFlatError,
    NotOuterMinimizingError,
    OutOfCollectionError,
    ParameterError,
    PenroseLabError,
    QuadratureError,
    UnsupportedDimensionError,
    WeakAlphaWarning,
)
from .geometry import (
    SphereGeometry,
    geodesic_distance,
    intrinsic_diameter,
    radial_laplacian,
    scalar_curvature,
    sphere_area,
    sphere_geometry,
    sphere_mean_curvature,
    volume_between,
)
from .masses import (
    AdmHawkingResult,
    AreaInfimum,
    AsymptoticTail,
    PenroseReport,
    adm_flux,
    adm_hawking_check,
    adm_mass_from_tail,
    area_infimum_radial,
    find_horizon,
    hawking_mass,
    penrose_check,
)
from .profiles import (
    CylinderProfile,
    Domain,
    EuclideanProfile,
    RadialGrid,
    RadialProfile,
    SchwarzschildLikeProfile,
    TabulatedProfile,
    default_grid,
    read_tabulated,
    scaled,
    unit_sphere_area,
    write_tabulated,
)
from .trumpet import (
    SmoothCutoff,
    TrumpetProfile,
    TrumpetVerification,
    build_trumpet,
    export_trumpet,
    find_r0,
    min_alpha,
    required_alpha,
    verify_trumpet,
)

__version__ = "0.1.0"
