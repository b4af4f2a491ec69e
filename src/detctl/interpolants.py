"""Finite-rank observation and actuation maps over a uniform cell partition.

Four controller families are supported on the partition J_k = [(k-1)h, kh],
h = L/N:

- ``volume``   local averages, reconstructed as a piecewise-constant field
- ``nodal``    one point value per cell, piecewise-constant reconstruction
- ``fourier``  projection onto the low cosine modes (optionally with mean)
- ``delta``    point observations driving point (distributional) actuators

The first three produce square-integrable interpolants; ``delta`` only
actuates, through a mass-preserving single-cell source.  Volume observation
is the per-cell sample mean (exact for cell-aligned piecewise constants, so
observe and interpolate compose idempotently); nodal and delta observation
evaluate the spectral representation at their points.  Deficits and
pairings are exact integrals of the realized interpolant, so the inequality
suites carry no quadrature error.

The closed loop sees a family only through :func:`control_operator`, one
triple (O, A, q) on grid coefficients c: observations ``(O @ c).real``, the
interpolant's coefficients ``A @ obs``, and its squared norm ``q @ obs**2``.
:func:`check_grid` is the one place that states which grids a family runs
on; the operator and every field-level map below call it.  The coefficient
layout comes from the grid: point observation is
``fields.point_eval_matrix``, and the fourier weights, the indicator
projection and the deficits and pairings use the grid's Parseval weights
``Grid1D.w``.  The field-level maps below are kept as the operator's
independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    NEUMANN,
    PERIODIC,
    Field,
    Grid1D,
    coeffs_of,
    eval_field,
    l2_sq_of_coeffs,
    point_eval_matrix,
    samples_of,
)

VOLUME = "volume"
NODAL = "nodal"
FOURIER = "fourier"
DELTA = "delta"

KINDS = (VOLUME, NODAL, FOURIER, DELTA)


def default_points(N: int, L: float) -> tuple[float, ...]:
    """Cell midpoints x_k = (k - 1/2) h, the default observation sites."""
    h = L / N
    return tuple((k + 0.5) * h for k in range(N))


@dataclass(frozen=True)
class InterpolantSpec:
    """Which controller family, its rank N, and its points.

    ``obs_points`` are where nodal/delta controllers measure; ``act_points``
    are where delta controllers force.  Both default to cell midpoints,
    every point must lie in its own cell, and a family that reads no such
    points rejects them.  ``include_mean`` (fourier only, default true) adds
    the k = 0 mean to the fourier modes k = 1..N; without it constants are
    invisible to the controller.
    """

    kind: str
    N: int
    L: float
    obs_points: tuple[float, ...] | None = None
    act_points: tuple[float, ...] | None = None
    include_mean: bool | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.N < 1:
            raise ValueError(f"controller rank must satisfy N >= 1, got N={self.N}")
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError(f"domain length must be positive, got L={self.L}")
        wants = {"obs_points": self.kind in (NODAL, DELTA), "act_points": self.kind == DELTA}
        for name in ("obs_points", "act_points"):
            pts = getattr(self, name)
            if pts is None:
                if wants[name]:
                    object.__setattr__(self, name, default_points(self.N, self.L))
                continue
            if not wants[name]:
                raise ValueError(f"{name}: {self.kind} controllers read no such points")
            pts = tuple(float(p) for p in pts)
            if len(pts) != self.N:
                raise ValueError(f"{name} must list exactly N={self.N} points")
            h = self.L / self.N
            for k, p in enumerate(pts):
                if not (k * h <= p <= (k + 1) * h):
                    raise ValueError(
                        f"{name}[{k}]={p} lies outside its cell [{k * h}, {(k + 1) * h}]"
                    )
            object.__setattr__(self, name, pts)
        if self.kind == FOURIER and self.include_mean is None:
            object.__setattr__(self, "include_mean", True)
        elif self.kind != FOURIER and self.include_mean is not None:
            raise ValueError(f"include_mean: {self.kind} controllers read no such flag")

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def rank(self) -> int:
        """Number of observation values this spec produces."""
        if self.kind == FOURIER and self.include_mean:
            return self.N + 1
        return self.N


# ---------------------------------------------------------------------------
# the rules tying a family to a grid

def check_grid(spec: InterpolantSpec, grid: Grid1D) -> None:
    """Raise ValueError unless ``grid`` can carry ``spec``'s family.

    Every rule that ties a family to a grid is stated here once: the grid
    has the spec's length and resolves its rank (N <= M/4); delta needs a
    periodic grid and every other family a Neumann grid; volume cells are
    whole grid cells (M a multiple of N); and delta actuation points fall
    in distinct grid cells (:func:`delta_cell_indices`).
    """
    if abs(grid.L - spec.L) > 1e-14 * spec.L:
        raise ValueError(f"grid length {grid.L} does not match spec length {spec.L}")
    if spec.N > grid.M // 4:
        raise ValueError(
            f"controller rank N={spec.N} exceeds M/4={grid.M // 4}: not resolved by the grid"
        )
    bc, name = (PERIODIC, "periodic") if spec.kind == DELTA else (NEUMANN, "Neumann")
    if grid.bc != bc:
        raise ValueError(f"{spec.kind!r} controllers require a {name} grid")
    if spec.kind == VOLUME and grid.M % spec.N != 0:
        raise ValueError(f"M={grid.M} must be a multiple of N={spec.N} for cell-aligned averages")
    if spec.kind == DELTA:
        delta_cell_indices(spec, grid)


def delta_cell_indices(spec: InterpolantSpec, grid: Grid1D) -> np.ndarray:
    """Grid cell (nearest sample) holding each actuation point; must be distinct."""
    pts = np.asarray(spec.act_points)
    idx = np.rint(pts / grid.dx).astype(int) % grid.M
    if len(np.unique(idx)) != len(idx):
        raise ValueError("two actuation points fall in the same grid cell")
    return idx


# ---------------------------------------------------------------------------
# exact geometry matrices (cosine basis)

def cell_average_matrix(spec: InterpolantSpec, n_modes: int) -> np.ndarray:
    """C[k, m] = mean of cos(m pi x / L) over cell J_k, exact integrals."""
    L, N, h = spec.L, spec.N, spec.h
    C = np.ones((N, n_modes))
    m = np.arange(1, n_modes)
    s = np.sin(np.outer(np.arange(N + 1) * h, m) * (np.pi / L))
    C[:, 1:] = np.diff(s, axis=0) * (L / (np.pi * h * m))
    return C


def cell_mean_matrix(spec: InterpolantSpec, grid: Grid1D) -> np.ndarray:
    """Coefficient-space form of volume observation, the per-cell sample mean.

    The midpoint rule over a cell's M/N samples of cos(m pi x / L) is the
    exact cell average times (theta/2) / sin(theta/2), theta = m pi / M.
    """
    check_grid(spec, grid)
    return cell_average_matrix(spec, grid.M) / np.sinc(np.arange(grid.M) / (2 * grid.M))


def chi_projection_matrix(spec: InterpolantSpec, grid: Grid1D) -> np.ndarray:
    """B[m, k] = coefficients of the indicator of cell J_k on a Neumann grid."""
    return spec.h * cell_average_matrix(spec, grid.M).T / grid.w[:, None]


def fourier_mode_slice(spec: InterpolantSpec) -> slice:
    """Retained cosine-mode indices of the fourier family."""
    return slice(0 if spec.include_mean else 1, spec.N + 1)


# ---------------------------------------------------------------------------
# observation / reconstruction / actuation

def observe(f: Field, spec: InterpolantSpec) -> np.ndarray:
    """Measure a field: cell averages, point values, or mode amplitudes.

    Volume averages are per-cell means of the samples (midpoint quadrature,
    which is exact for cell-aligned piecewise constants and for linear
    profiles, so observe and interpolate compose idempotently); nodal and
    delta kinds evaluate the spectral representation at their points.
    """
    check_grid(spec, f.grid)
    if spec.kind == VOLUME:
        return f.values.reshape(spec.N, -1).mean(axis=1)
    if spec.kind == FOURIER:
        # the coefficient convention already matches (2/L) int f cos(k..)
        return coeffs_of(f)[fourier_mode_slice(spec)]
    return eval_field(f, np.asarray(spec.obs_points))


def interpolate(obs: np.ndarray, spec: InterpolantSpec, grid: Grid1D) -> Field:
    """Realize the interpolant I_h on the grid.

    Piecewise-constant families require M to be a multiple of N so that every
    grid cell lies wholly inside one J_k and the indicators are sampled
    exactly.  The delta family has no square-integrable interpolant; see
    :func:`actuate_delta`.
    """
    if spec.kind == DELTA:
        raise ValueError("delta controllers do not define an L2 interpolant")
    check_grid(spec, grid)
    if obs.shape != (spec.rank,):
        raise ValueError(f"expected {spec.rank} observations, got {obs.shape}")
    if spec.kind == FOURIER:
        c = np.zeros(grid.M)
        c[fourier_mode_slice(spec)] = obs
        return Field(grid, samples_of(grid, c))
    if grid.M % spec.N != 0:
        raise ValueError(f"M={grid.M} must be a multiple of N={spec.N} for exact indicators")
    return Field(grid, np.repeat(obs, grid.M // spec.N))


def actuate_delta(obs: np.ndarray, spec: InterpolantSpec, grid: Grid1D) -> Field:
    """Grid realization of h * sum_k obs_k delta(x - x_k) on a periodic grid.

    Each point source is deposited in the single grid cell containing its
    actuation point (value obs_k * h / dx), so its discrete integral against
    any test field approximates h * sum_k obs_k * phi(x_k) to first order in
    dx, and exactly when x_k falls on a grid point.
    """
    if spec.kind != DELTA:
        raise ValueError("actuate_delta requires a delta-kind spec")
    check_grid(spec, grid)
    if obs.shape != (spec.N,):
        raise ValueError(f"expected {spec.N} observations, got {obs.shape}")
    out = np.zeros(grid.M)
    out[delta_cell_indices(spec, grid)] = obs * (spec.h / grid.dx)
    return Field(grid, out)


# ---------------------------------------------------------------------------
# closed-loop control operator (coefficient space)

@dataclass(frozen=True)
class ControlOperator:
    """A controller family as three arrays acting on a grid's coefficients c.

    - ``O`` observes: ``obs = (O @ c).real``
    - ``A`` actuates: ``A @ obs`` are the coefficients of the resolved-band
      projection of I_h(u), or of the grid point sources for delta
    - ``q`` weighs the interpolant norm: ``||I_h(u)||^2 = q @ obs**2``
      (the discrete norm of the grid sources for delta)
    """

    O: np.ndarray
    A: np.ndarray
    q: np.ndarray


def control_operator(spec: InterpolantSpec, grid: Grid1D) -> ControlOperator:
    """The (O, A, q) triple of ``spec`` on ``grid``.

    Volume and nodal controllers observe cell means and point values and
    actuate the cell indicators, so ``A @ O`` pairs exactly with any resolved
    field; fourier selects its modes and puts them back; delta observes point
    values and deposits single-cell sources (see :func:`actuate_delta`).
    Which grids a family runs on is :func:`check_grid`'s, the one place
    that states it.
    """
    check_grid(spec, grid)
    if spec.kind == DELTA:
        O = point_eval_matrix(grid, spec.obs_points)
        # A holds the rfft coefficients of unit sources at the actuated grid points
        x_act = grid.points()[delta_cell_indices(spec, grid)]
        A = np.exp(-1j * np.outer(grid.wavenumbers, x_act)) * (spec.h / (grid.dx * grid.M))
        return ControlOperator(O, A, np.full(spec.N, spec.h ** 2 / grid.dx))
    if spec.kind == FOURIER:
        sl = fourier_mode_slice(spec)
        O = np.eye(grid.M)[sl]
        return ControlOperator(O, O.T, grid.w[sl])
    if spec.kind == VOLUME:
        O = cell_mean_matrix(spec, grid)
    else:
        O = point_eval_matrix(grid, spec.obs_points)
    return ControlOperator(O, chi_projection_matrix(spec, grid), np.full(spec.N, spec.h))


# ---------------------------------------------------------------------------
# derived scalar quantities (exact integrals, no quadrature error)

def defect(f: Field, spec: InterpolantSpec) -> float:
    """Interpolation deficit ||f - I_h(f)||_L2.

    The squared deficit expands into the field's norm, the cross term
    against the piecewise-constant (or modal) reconstruction, and the
    reconstruction's norm; every term is an exact integral of the
    trigonometric representation, so no quadrature error enters.
    """
    if spec.kind == DELTA:
        raise ValueError("delta controllers do not define an interpolation deficit")
    grid = f.grid
    check_grid(spec, grid)
    c = coeffs_of(f)
    l2_sq = l2_sq_of_coeffs(grid, c)
    if spec.kind == FOURIER:
        sl = fourier_mode_slice(spec)
        d_sq = l2_sq - grid.w[sl] @ c[sl] ** 2
    else:
        v = observe(f, spec)
        fbar = cell_average_matrix(spec, grid.M) @ c
        d_sq = l2_sq - 2.0 * spec.h * np.sum(v * fbar) + spec.h * np.sum(v ** 2)
    return float(np.sqrt(max(d_sq, 0.0)))


def pairing(f: Field, spec: InterpolantSpec) -> float:
    """Continuum control pairing <I_h(f), f> (exact integrals).

    For the delta family this is the distributional action
    h * sum_k f(xbar_k) f(x_k).
    """
    grid = f.grid
    check_grid(spec, grid)
    c = coeffs_of(f)
    if spec.kind in (VOLUME, NODAL):
        fbar = cell_average_matrix(spec, grid.M) @ c
        return float(spec.h * np.sum(observe(f, spec) * fbar))
    if spec.kind == FOURIER:
        sl = fourier_mode_slice(spec)
        return float(grid.w[sl] @ c[sl] ** 2)
    f_obs = eval_field(f, np.asarray(spec.obs_points))
    f_act = eval_field(f, np.asarray(spec.act_points))
    return float(spec.h * np.sum(f_obs * f_act))
