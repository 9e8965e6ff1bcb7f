"""Camassa-Holm solver in flow-map variables on the real line.

The shallow-water equation

    u_t - u_txx + 3 u u_x - u u_xxx - 2 u_x u_xx = 0

is integrated by rewriting it as an ordinary differential equation for the
particle-trajectory map eta(t) and its velocity U = d(eta)/dt inside the
group of C1 + H1 diffeomorphisms of the line.  The package provides the
function-space and group toolkit, the O(n) exponential-kernel operators that
close the system without numerical differentiation, the flow-map integrator
with wave-breaking detection, an independent Eulerian reference solver for
cross-validation, and a CLI harness with verification suites.
"""

from .errors import (
    AdmissibilityError,
    CHFlowError,
    ChartViolation,
    ConvergenceFailure,
    GridMismatch,
    ParseError,
    TimeMismatch,
    ValidationError,
)
from .fields import (
    Grid,
    NormComponents,
    ScalarField0,
    ScalarField1,
    norm_11,
    norm_components,
    read_field_csv,
    require_admissible,
    write_field_csv,
)
from .diffeo import (
    Diffeo,
    comp1,
    comp2,
    distance,
    invert,
)
from .operators import (
    inv_helmholtz,
    l_eta_direct,
    l_op,
)
from .lagrangian import (
    FlowState,
    Trajectory,
    integrate,
    reconstruct_u,
    rk4_step,
)
from .eulerian import (
    ComparisonReport,
    EulerianState,
    compare,
    integrate_eulerian,
)
from .config import SimConfig, load_config, make_initial

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "CHFlowError", "ChartViolation", "ConvergenceFailure",
    "GridMismatch", "ParseError", "TimeMismatch", "ValidationError",
    "Grid", "NormComponents", "ScalarField0", "ScalarField1",
    "norm_11", "norm_components", "read_field_csv", "require_admissible",
    "write_field_csv",
    "Diffeo", "comp1", "comp2", "distance", "invert",
    "inv_helmholtz", "l_eta_direct", "l_op",
    "FlowState", "Trajectory", "integrate", "reconstruct_u", "rk4_step",
    "ComparisonReport", "EulerianState", "compare", "integrate_eulerian",
    "SimConfig", "load_config", "make_initial",
    "__version__",
]
