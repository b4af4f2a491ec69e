"""Finite-rank feedback stabilization of the 1D Chafee-Infante equation.

Library layout:

- :mod:`detctl.fields`        grids, transforms, norms
- :mod:`detctl.interpolants`  finite-rank observation / actuation maps
- :mod:`detctl.dynamics`      open- and closed-loop time integration
- :mod:`detctl.analysis`      stability conditions and tolerances, decay fits, sweeps
- :mod:`detctl.oracle`        independent analytic and brute-force references
- :mod:`detctl.cli`           `detctl` command-line entry point
"""

__version__ = "0.1.0"

from .analysis import check_conditions  # noqa: F401
from .dynamics import (  # noqa: F401
    BlowupError,
    ClosedLoopParams,
    ICSpec,
    SimConfig,
    TrajectoryRecord,
    simulate,
)
from .fields import Field, Grid1D  # noqa: F401
from .interpolants import InterpolantSpec, observe  # noqa: F401
