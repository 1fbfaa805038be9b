"""igclab: a numerical lab for onsite-dissipative lattice models.

Builders for lossy ladder and graph Hamiltonians, solvers for the momenta
where the periodic spectrum touches the real axis, dissipative quantum walks
with two independent escape-probability engines, scaling and edge-burst
analysis, and the damping-matrix (Liouvillian) side of the same physics.
"""

__version__ = "0.1.0"

from .model import (
    OBC, PBC, LadderParams, GeneralModel, LadderOperator, build_ladder,
    build_general, bloch_bands, linear_gamma, random_gamma, site_index,
)
from .densela import SingularMatrixError, lu_solve, eigendecompose
from .igc import IGC, GAPPED, IgcPoint, IgcSolution, solve_connection
from .walk import (
    TIME, RESOLVENT, WalkConfig, LossProfile, loss_profile_time, loss_profile_resolvent,
)
from .analysis import (
    POWER, EXP, NONE, LEFT, RIGHT, BIPOLAR, FitResult, BurstMetrics,
    fit_bulk, burst_metrics, self_intersections,
)
from .liouville import LiouvilleReport, build_damping, liouvillian_gap, steady_density

__all__ = [name for name in dir() if not name.startswith("_")]
