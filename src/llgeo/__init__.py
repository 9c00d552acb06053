"""Structure-preserving Landau-Lifshitz dynamics and momentum-map diagnostics."""

from .grid import Grid
from .fields import (
    SpinField,
    RotationField,
    EuclideanAlgebraElement,
    SemidirectAlgebraElement,
    K_AXIS,
)
from .generators import (
    make_constant,
    make_bp_soliton,
    make_radial_profile,
    make_gauge_field,
    make_random_smooth,
    make_gauge_bump_alpha,
)
from .calculus import (
    partial,
    partial_T,
    integrate,
    so3_log,
    right_gradient_axis,
)
from .dynamics import (
    EnergyParams,
    SimConfig,
    energy,
    step,
    simulate,
)
from .momenta import (
    MomentumReport,
    degree,
    momentum_N,
    momentum_P_cross,
    momentum_P_general,
    moments,
    momentum_P_derivative,
    rotational_momentum,
    lift_psi,
    lift_singular_mask,
    momentum_JH,
    reduced_momentum_lift,
    gauge_invariance_residual,
    check_lift_identity,
)
from .cocycle import (
    wedge_lift,
    semidirect_bracket,
    cocycle_direct,
    cocycle_via_pairing,
    lie_poisson_bracket,
    check_px_py_bracket,
)
from .io import write_snapshot, read_snapshot
from .errors import (
    ConfigError,
    SnapshotError,
    NumericsError,
    ConvergenceError,
    SingularLiftError,
)

__version__ = "0.1.0"
