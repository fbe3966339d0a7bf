"""Metric geometry of Bridgeland stability spaces.

Explicit models (translation orbits, the R^4 sup-metric and its
quotient, the Kronecker strip), curvature certificates (CAT(0) and
slimness violations, non-unique geodesics), and pseudo-Anosov dynamics
on the elliptic-curve model.
"""

from .dynamics import (
    Autoeq,
    MassSeed,
    PA_TABLE,
    curve_pa_summary,
    entropy_value,
    h_coordinate,
    mass_growth_estimate,
    pa_classify,
    poincare_distance,
    poincare_translation_length,
    stretch_factor,
    translation_length,
    upper_bound_dbar,
)
from .lin2 import (
    CoveredMap,
    Mat2,
    compose,
    lift_eval,
    operator_norm,
    sup_displacement,
)
from .metriclab import (
    SpaceHandle,
    TriangleCertificate,
    c_orbit_space,
    cat0_check,
    comparison_triangle,
    euclidean_plane,
    geodesic_deviation,
    kronecker_space,
    linear_sup_space,
    nonunique_geodesic_check,
    quotient_r4_space,
    r4_space,
    slim_check,
    verify_certificate,
)
from .quotient import (
    IsometryReport,
    QuotPoint,
    dprime,
    embed_q,
    isometry_report,
    kron_quot_closed,
    quot_dist_closed,
    quot_dist_inf,
    quot_dist_pairs,
    quot_minimizer,
    r4_act,
)
from .stabmodel import (
    HNProfile,
    KroneckerPoint,
    ObjectClass,
    c_act,
    c_orbit_distance,
    central_charge,
    d_B_closed,
    d_B_sampled,
    hn_profile,
    support_constant,
)

__version__ = "0.1.0"
