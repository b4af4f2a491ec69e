"""Independent references: closed-form solutions and brute-force constants.

Linear-mode and logistic solutions validate the integrator and reuse none of
its code.  The interpolation constant of a family is a ratio of two quadratic
forms in the cosine coefficients, the defect's and the derivative's, so its
supremum over a band of modes is one top eigenvalue, computed exactly.  It
shares one helper with the solver: the volume and nodal defect forms take the
exact cell averages from :func:`interpolants.cell_average_matrix`, from which
:func:`interpolants.control_operator` also builds the volume and nodal maps.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ClosedLoopParams
from .fields import Field, Grid1D
from .interpolants import (
    DELTA,
    FOURIER,
    NODAL,
    VOLUME,
    InterpolantSpec,
    cell_average_matrix,
)


def analytic_linear_mode(k: int, A: float, t: float, p: ClosedLoopParams,
                         grid: Grid1D) -> Field:
    """Exact single-mode solution of the linearized open loop.

    The mode A cos(k pi x / L) evolves by exp((alpha - nu (pi k / L)^2) t):
    growth whenever nu (pi k / L)^2 < alpha.
    """
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    lam = p.alpha - p.nu * (np.pi * k / p.L) ** 2
    amp = A * np.exp(lam * t)
    return Field(grid, amp * np.cos(k * np.pi * grid.points() / grid.L))


def logistic_constant_state(c0: float, t: float, p: ClosedLoopParams) -> float:
    """Exact spatially constant open-loop state solving u' = alpha u - u^3.

    Written with decaying exponentials only, so large alpha * t cannot
    overflow: u(t) = sqrt(alpha) c0 / sqrt(alpha e^{-2 alpha t}
    + c0^2 (1 - e^{-2 alpha t})).
    """
    if c0 == 0.0:
        return 0.0
    decay = np.exp(-2.0 * p.alpha * t)
    return float(np.sqrt(p.alpha) * c0 / np.sqrt(p.alpha * decay + c0 ** 2 * (1.0 - decay)))


# ---------------------------------------------------------------------------
# exact interpolation constants

def _defect_form(spec: InterpolantSpec, n_modes: int) -> np.ndarray:
    """D with ||phi - I_h(phi)||^2 = a^T D a for phi = sum_k a_k cos(k pi x / L),
    k = 0..n_modes-1.

    Exact integrals of the true interpolant (analytic cell averages C, point
    values E), free of quadrature effects.
    """
    L, h = spec.L, spec.h
    k = np.arange(n_modes)
    w = np.where(k == 0, L, L / 2.0)
    if spec.kind == VOLUME:
        C = cell_average_matrix(spec, n_modes)
        return np.diag(w) - h * C.T @ C
    if spec.kind == NODAL:
        C = cell_average_matrix(spec, n_modes)
        E = np.cos(np.outer(spec.obs_points, k) * (np.pi / L))
        cross = E.T @ C
        return np.diag(w) - h * (cross + cross.T) + h * E.T @ E
    kept = (k <= spec.N) & ((k > 0) | spec.include_mean)  # fourier
    return np.diag(np.where(kept, 0.0, w))


def bh_constant(spec: InterpolantSpec, kmax: int) -> float:
    """Sharp c in ||phi - I_h(phi)|| <= c h ||phi_x|| over cosine sums up to
    mode ``kmax``: sqrt(lambda_max(K^-1/2 D K^-1/2)) / h on modes 1..kmax,
    with K the derivative weights (L/2)(k pi / L)^2.

    Mode 0 carries no derivative, and the defect vanishes on constants for
    every family with a finite constant, so its row of D is 0 and dropping it
    loses nothing.  This is the exact supremum over the band, so a lower bound
    on the family's constant over all of H1; the certified constant used by
    the condition checker must not fall below it.
    """
    if spec.kind == DELTA:
        raise ValueError("delta controllers have no interpolation constant")
    if spec.kind == FOURIER and not spec.include_mean:
        raise ValueError("fourier without the mean has no finite constant: constants are invisible")
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1 (mode 0 has no derivative), got {kmax}")
    s = 1.0 / (np.sqrt(spec.L / 2.0) * np.arange(1, kmax + 1) * (np.pi / spec.L))
    lam = np.linalg.eigvalsh(s[:, None] * _defect_form(spec, kmax + 1)[1:, 1:] * s)[-1]
    return float(np.sqrt(max(lam, 0.0))) / spec.h
