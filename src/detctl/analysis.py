"""Trajectory analysis: the closed-loop stability conditions, the rates and
absorbing-ball radii they certify and the tolerances they are checked at
(each stated here once), decay-rate fits, bound verification, mode counting,
and minimal-controller-rank sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dynamics import (
    BlowupError,
    ClosedLoopParams,
    ICSpec,
    SimConfig,
    TrajectoryRecord,
    integrate,
    simulate,
    stability_limit,
)
from .fields import Grid1D
from .interpolants import DELTA, FOURIER, NODAL, VOLUME, InterpolantSpec

UNDERFLOW_FLOOR = 1e-280

# relative tolerances of the certified checks: ||u(t)||^2 may exceed its decay
# bound, and a fitted rate fall short of its rate, by DECAY_SLACK; past its
# entry time the trajectory must lie in the ball (1 + ABSORBING_MARGIN) R0^2
DECAY_SLACK = 0.05
ABSORBING_MARGIN = 0.05

# a sweep cell is stabilized when ||u(T)|| <= STABILIZED_RATIO ||u(0)||
STABILIZED_RATIO = 1e-4

# sweep cells: the smallest grid, and the step over the explicit stability limit
SWEEP_M_MIN = 64
SWEEP_SAFETY = 0.4


# ---------------------------------------------------------------------------
# closed-loop hypothesis checks

def certified_c(spec: InterpolantSpec | None) -> float | None:
    """Certified interpolation constant c with defect <= c h ||.||_H1.

    Volume and nodal families carry c = 1; the fourier family with the mean
    carries c = 1/pi.  Without the mean (constants invisible) and for the
    delta family no finite constant exists.
    """
    if spec is None:
        return None
    if spec.kind in (VOLUME, NODAL):
        return 1.0
    if spec.kind == FOURIER and spec.include_mean:
        return 1.0 / np.pi
    return None


@dataclass(frozen=True)
class TheoremCheck:
    applies: bool
    satisfied: bool
    predicted_rate: float | None = None
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConditionReport:
    """Per-regime hypothesis verdicts and predicted squared-norm decay rates.

    - thm21_proof: volume elements, the working conditions mu h >= nu and
      nu > alpha h^2 / (4 pi^2); rate nu (2 pi N / L)^2 - alpha
    - thm21_printed: the stated (dimensionally inconsistent) hypothesis
      mu >= nu > (h / 2 pi)^2 max(alpha, mu), flagged separately
    - thm41: existence/absorbing-ball condition nu >= mu c^2 h^2
    - thm51: gain margin r = mu - 2 alpha - nu / L^2 > 0 plus thm41; rate r
    - thm71: delta actuation, mu > 4 alpha and nu >= 2 mu h^2;
      rate 2 (mu / 4 - alpha)
    """

    open_loop: bool
    kind: str | None
    h: float | None
    c: float | None
    thm21_proof: TheoremCheck
    thm21_printed: TheoremCheck
    thm41: TheoremCheck
    thm51: TheoremCheck
    thm71: TheoremCheck


def check_conditions(p: ClosedLoopParams) -> ConditionReport:
    """Evaluate every closed-loop stability hypothesis for these parameters."""
    no = TheoremCheck(applies=False, satisfied=False)
    if p.open_loop:
        return ConditionReport(True, None, None, None, no, no, no, no, no)

    spec = p.spec
    h = spec.h
    c = certified_c(spec)
    nu, alpha, mu, L = p.nu, p.alpha, p.mu, p.L

    if spec.kind == VOLUME:
        rate21 = nu * (2 * np.pi * spec.N / L) ** 2 - alpha
        nu_min = alpha * h ** 2 / (4 * np.pi ** 2)
        thm21_proof = TheoremCheck(True, bool(mu * h >= nu > nu_min), rate21,
                                   {"mu_h": mu * h, "nu": nu, "alpha_h2_over_4pi2": nu_min})
        threshold = (h / (2 * np.pi)) ** 2 * max(alpha, mu)
        thm21_printed = TheoremCheck(True, bool(mu >= nu > threshold), rate21,
                                     {"threshold": threshold})
    else:
        thm21_proof = thm21_printed = no

    if c is not None:
        mu_c2_h2 = mu * c ** 2 * h ** 2
        thm41 = TheoremCheck(True, bool(nu >= mu_c2_h2), None,
                             {"mu_c2_h2": mu_c2_h2, "R0_sq": absorbing_bounds(p)[0]})
        r = mu - (2 * alpha + nu / L ** 2)
        thm51 = TheoremCheck(True, bool(r > 0 and thm41.satisfied), float(r), {"r": float(r)})
    else:
        thm41 = thm51 = no

    if spec.kind == DELTA:
        four_alpha, two_mu_h2 = 4 * alpha, 2 * mu * h ** 2
        thm71 = TheoremCheck(True, bool(mu > four_alpha and nu >= two_mu_h2),
                             float(2 * (mu / 4 - alpha)),
                             {"four_alpha": four_alpha, "two_mu_h2": two_mu_h2})
    else:
        thm71 = no

    return ConditionReport(False, spec.kind, h, c,
                           thm21_proof, thm21_printed, thm41, thm51, thm71)


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit of the squared L2 norm: ||u||^2 ~ C exp(-rate * t)."""

    rate: float
    window: tuple[float, float]
    residual: float


class NoFitError(ValueError):
    """The requested fit window is too short or the signal sits at the floor."""


def linear_growth_rate(k: int, p: ClosedLoopParams) -> float:
    """Decay exponent nu (pi k / L)^2 - alpha of mode k about zero (negative
    means the mode grows)."""
    if k < 0:
        raise ValueError("mode index must be nonnegative")
    return float(p.nu * (np.pi * k / p.L) ** 2 - p.alpha)


def unstable_mode_count(p: ClosedLoopParams) -> int:
    """Number of modes k >= 0 with negative decay exponent.

    The exponent is increasing in k, so counting stops at the first stable
    mode; k = 0 always grows at rate alpha > 0.
    """
    k = 0
    while linear_growth_rate(k, p) < 0.0:
        k += 1
    return k


def reference_rank(nu: float, alpha: float, L: float) -> float:
    """sqrt(alpha L^2 / nu) / pi, the continuous boundary of the unstable
    modes (mode k grows exactly when k lies below it): Remark 2.1's
    reference for the minimal controller rank."""
    return math.sqrt(alpha * L ** 2 / nu) / math.pi


def fit_decay_rate(traj: TrajectoryRecord, t0: float) -> DecayFit:
    """Least-squares slope of log ||u||^2 on [t0, end of valid window]."""
    t = np.asarray(traj.times)
    e = np.asarray(traj.l2) ** 2
    start = int(np.searchsorted(t, t0))
    t, e = t[start:], e[start:]
    dead = np.nonzero(e <= UNDERFLOW_FLOOR)[0]
    if dead.size:
        t, e = t[: dead[0]], e[: dead[0]]
    if len(t) < 10:
        raise NoFitError(
            f"only {len(t)} samples past t0={t0} above the underflow floor; need >= 10"
        )
    logs = np.log(e)
    slope, intercept = np.polyfit(t, logs, 1)
    resid = float(np.sqrt(np.mean((slope * t + intercept - logs) ** 2)))
    return DecayFit(rate=float(-slope), window=(float(t[0]), float(t[-1])), residual=resid)


def verify_decay_bound(traj: TrajectoryRecord, r: float, slack: float) -> bool:
    """Check ||u(t)||^2 <= (1 + slack) e^{-r t} ||u(0)||^2 at every record."""
    if not np.isfinite(r):
        raise ValueError("decay rate must be finite")
    t = np.asarray(traj.times)
    e = np.asarray(traj.l2) ** 2
    bound = (1.0 + slack) * np.exp(-r * t) * e[0]
    return bool(np.all(e <= bound))


def energy_allowance(traj: TrajectoryRecord) -> float:
    """Largest energy residual the recorded identity may leave:
    1e-3 * max(max ||u||_H1^2, 1)."""
    h1_max = float(np.max(traj.h1)) if len(traj) else 0.0
    return 1e-3 * max(h1_max ** 2, 1.0)


def absorbing_bounds(p: ClosedLoopParams) -> tuple[float, float]:
    """Asymptotic L2 and derivative bounds (R0^2, R1^2) of the closed loop.

    R0^2 = (alpha + nu/L^2)^2 L^3 / nu and
    R1^2 = (1/nu) [ (alpha + nu/L^2) L + R0^2 ] [ 1 + 2 (alpha + mu^2 c^2 h^2 / (2 nu)) ].
    """
    nu, alpha, L, mu = p.nu, p.alpha, p.L, p.mu
    r0_sq = (alpha + nu / L ** 2) ** 2 * L ** 3 / nu
    if p.open_loop:
        gain_term = 0.0
    else:
        c = certified_c(p.spec)
        if c is None:
            raise ValueError(f"no certified interpolation constant for kind {p.spec.kind!r}")
        gain_term = mu ** 2 * c ** 2 * p.spec.h ** 2 / (2.0 * nu)
    r1_sq = (1.0 / nu) * ((alpha + nu / L ** 2) * L + r0_sq) * (1.0 + 2.0 * (alpha + gain_term))
    return float(r0_sq), float(r1_sq)


def absorbing_entry_time(p: ClosedLoopParams, u0_l2_sq: float) -> float:
    """Time at which the a-priori envelope enters (1 + ABSORBING_MARGIN) R0^2.

    The envelope K0(t) = R0^2 + (||u(0)||^2 - R0^2) e^{-nu t / L^2} dominates
    ||u(t)||^2 whenever the existence hypotheses hold, so past this time the
    trajectory must sit inside the inflated absorbing ball.
    """
    r0_sq, _ = absorbing_bounds(p)
    excess = u0_l2_sq - r0_sq
    if excess <= ABSORBING_MARGIN * r0_sq:
        return 0.0
    return float(p.L ** 2 / p.nu * math.log(excess / (ABSORBING_MARGIN * r0_sq)))


# ---------------------------------------------------------------------------
# minimal stabilizing controller rank

def sweep_grid(N: int, kmax: int, L: float = 1.0) -> Grid1D:
    """Smallest Neumann grid that is a multiple of 4N, resolves the IC band,
    and has at least ``SWEEP_M_MIN`` cells."""
    base = 4 * N
    target = max(SWEEP_M_MIN, 8 * kmax, base)
    M = base * math.ceil(target / base)
    return Grid1D(L, M)


def sweep_cell_config(
    nu: float, alpha: float, L: float, mu: float, N: int,
    *, kind: str = VOLUME, ic_seed: int = 0, ic_kmax: int = 2,
    ic_amplitude: float = 1.0,
) -> tuple[SimConfig, ClosedLoopParams]:
    """Deterministic run setup for one (alpha, N) stabilization cell.

    Fixed random band initial state, final time 20/alpha, and a step size
    of ``SWEEP_SAFETY`` times the explicit-part bound at the saturated
    amplitude max(2 sqrt(alpha), 2 max|u0|), so cells that merely saturate
    (instead of decaying) still integrate cleanly to T.
    """
    spec = InterpolantSpec(kind, N, L)
    p = ClosedLoopParams(nu=nu, alpha=alpha, L=L, mu=mu, spec=spec)
    grid = sweep_grid(N, ic_kmax, L)
    ic = ICSpec("random-band", seed=ic_seed, kmax=ic_kmax, amplitude=ic_amplitude)
    u0 = ic.realize(grid)
    u_cap = max(2.0 * math.sqrt(alpha), 2.0 * float(np.max(np.abs(u0.values))))
    T = 20.0 / alpha
    dt = SWEEP_SAFETY * stability_limit(alpha, mu, u_cap)
    n_steps = max(int(math.ceil(T / dt)), 10)
    cfg = SimConfig(grid=grid, dt=T / n_steps, T=T, ic=ic, record_every=n_steps)
    return cfg, p


def terminal_ratio(cfg: SimConfig, p: ClosedLoopParams, outcomes: dict | None = None) -> float:
    """||u(T)|| / ||u(0)||; infinite when the run blows up or trips the
    stability guard.  ``outcomes`` is as in :func:`simulate`."""
    try:
        traj = simulate(cfg, p, outcomes)
    except BlowupError:
        return float("inf")
    if traj.l2[0] == 0.0:
        return 0.0
    return float(traj.l2[-1] / traj.l2[0])


def rank_scan(
    nu: float, alphas: Sequence[float], L: float, mus: Sequence[float], Ns: Iterable[int],
    *, kind: str = VOLUME, ic_seed: int = 0, ic_kmax: int = 2, ic_amplitude: float = 1.0,
) -> list[dict[int, float]]:
    """Terminal ratio of every rank N in ``Ns`` at every alpha (with its gain mu).

    Returns one {N: ratio} per alpha.  Each cell runs from the fixed random
    band state of :func:`sweep_cell_config`, and all cells are integrated by
    one :func:`integrate` call, which steps the cells that share a grid and a
    step schedule together; each cell's ratio is then read from its outcome
    (a cell that blows up gets an infinite ratio).  Every
    rank is run: the stabilization criterion (a ratio at or below
    ``STABILIZED_RATIO``, far below any transient overshoot) is not
    assumed monotone in N, so the minimal stabilizing rank is the first one
    that meets it.
    """
    Ns = list(Ns)
    cells = [[sweep_cell_config(nu, alpha, L, mu, N, kind=kind, ic_seed=ic_seed,
                                ic_kmax=ic_kmax, ic_amplitude=ic_amplitude) for N in Ns]
             for alpha, mu in zip(alphas, mus)]
    outcomes = integrate(member for row in cells for member in row)
    return [{N: terminal_ratio(cfg, p, outcomes) for N, (cfg, p) in zip(Ns, row)}
            for row in cells]
