"""chargelab: numerical laboratory for mean field-strength integrals of
weighted point charges on the unit ball.

Core entry points: build a `ChargeConfiguration`, evaluate its energy with
`chui_energy` under a `QuadratureSpec`, certify bounds with
`make_bound_report`, probe the proof inequalities with the suite runners,
and search placements with `minimize_positions`. The `chargelab` console
script exposes the same operations as experiment commands.
"""

from .configurations import (
    ArcPartition,
    ChargeConfiguration,
    config_from_json_dict,
    config_to_json_dict,
    fibonacci_sphere_config,
    load_config,
    merge_coincident,
    merge_configs,
    random_config,
    save_config,
    uniform_circle_config,
    weighted_arc_config,
)
from .fields import (
    FieldSample,
    SingularPointError,
    averaged_kernel,
    cauchy_transform,
    field_at,
    potential_at,
)
from .quadrature import (
    QuadratureResult,
    QuadratureSpec,
    chui_energy,
    l1_defect,
    two_pole_l1,
    unit_ball_volume,
)
from .bounds import (
    NEWMAN_CONSTANT,
    BoundReport,
    DominanceReport,
    ProofGeometry,
    WeightStats,
    dominance_check,
    interior_pole_bound,
    lower_bound_rhs,
    make_bound_report,
    poisson_gap,
    proof_constant,
    reduction_budget,
    run_lemma_suites,
    tangent_ball_gap,
    tangent_ball_ratio_margin,
)
from .optimize import (
    CertificateReport,
    OptimizationTrace,
    local_min_certificate,
    minimize_positions,
)

__version__ = "0.1.0"
