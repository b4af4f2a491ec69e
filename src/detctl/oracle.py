"""Independent references: closed-form solutions and brute-force constants.

Linear-mode and logistic solutions validate the integrator and reuse none of
its code.  The empirical interpolation-constant search brackets the
certified constants from below by random trial plus coordinate ascent,
entirely in coefficient space with exact integrals.  It shares one helper
with the solver: its volume and nodal ratios take the exact cell averages
from :func:`interpolants.cell_average_matrix`, from which
:func:`interpolants.control_operator` also builds the volume and nodal maps.
"""

from __future__ import annotations

import numpy as np

from .dynamics import ClosedLoopParams
from .fields import Field, Grid1D, random_cosine_coeffs
from .interpolants import (
    DELTA,
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
# empirical interpolation constants

def _ratio_fn(spec: InterpolantSpec, n_modes: int):
    """defect / (h ||phi_x||) of each row of a (K, n_modes) coefficient stack.

    Uses exact integrals of the true interpolant (analytic cell averages),
    so the returned values are lower bounds on the sharp constant of the
    family itself, free of quadrature effects.  A row with a vanishing
    derivative gets NaN.
    """
    L, h = spec.L, spec.h
    k = np.arange(n_modes)
    deriv_w = (L / 2.0) * (k * np.pi / L) ** 2

    def l2_sq(a):
        return L * (a[:, 0] ** 2 + 0.5 * np.sum(a[:, 1:] ** 2, axis=1))

    if spec.kind == VOLUME:
        C = cell_average_matrix(spec, n_modes)

        def defect_sq(a):
            return l2_sq(a) - h * np.sum((a @ C.T) ** 2, axis=1)

    elif spec.kind == NODAL:
        C = cell_average_matrix(spec, n_modes)
        E = np.cos(np.outer(spec.obs_points, k) * (np.pi / L))

        def defect_sq(a):
            fx = a @ E.T
            return l2_sq(a) - 2.0 * h * np.sum(fx * (a @ C.T), axis=1) + h * np.sum(fx ** 2, axis=1)

    else:  # fourier

        def defect_sq(a):
            d = 0.5 * L * np.sum(a[:, spec.N + 1:] ** 2, axis=1)
            if not spec.include_mean:
                d = d + L * a[:, 0] ** 2
            return d

    def ratio(a):
        dx_sq = np.sum(deriv_w * a ** 2, axis=1)
        d_sq = np.maximum(defect_sq(a), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(dx_sq > 0.0, np.sqrt(d_sq) / (h * np.sqrt(dx_sq)), np.nan)

    return ratio


def _coordinate_ascent(ratio, a0: np.ndarray) -> float:
    """Greedy coordinate sharpening with step halving, at most 100 passes:
    each pass tries every coordinate up and down as one stack and keeps the
    best trial if it improves."""
    a = a0.copy()
    best = float(ratio(a[None])[0])
    step = 0.5
    scale = np.abs(a) + 0.1 * max(np.max(np.abs(a)), 1e-12)
    moves = np.concatenate([np.diag(scale), -np.diag(scale)])
    for _ in range(100):
        trials = a + step * moves
        r = np.nan_to_num(ratio(trials), nan=-np.inf)
        j = int(np.argmax(r))
        if r[j] > best:
            best, a = float(r[j]), trials[j]
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return best


def empirical_bh_constant(spec: InterpolantSpec, seed: int, n_trials: int, kmax: int) -> float:
    """Largest defect / (h ||phi_x||) over ``n_trials`` seeded random cosine
    sums up to mode ``kmax`` (the 1/(k+1) amplitude law), refined.

    A lower bound on the sharp constant of the family; it must never exceed
    the certified constant used by the condition checker.
    """
    if spec.kind == DELTA:
        raise ValueError("delta controllers have no interpolation constant")
    if n_trials < 1:
        raise ValueError("ensemble needs at least one trial")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    ratio = _ratio_fn(spec, kmax + 1)
    rng = np.random.default_rng(seed)
    trials = np.array([random_cosine_coeffs(rng, kmax) for _ in range(n_trials)])
    r = ratio(trials)
    if np.isnan(r).all():
        raise ValueError("degenerate ensemble: every trial has a vanishing derivative")
    return _coordinate_ascent(ratio, trials[np.nanargmax(r)])
