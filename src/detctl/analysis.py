"""Trajectory analysis: the closed-loop stability conditions, the rates and
absorbing-ball radii they certify and the tolerances they are checked at
(each stated here once), decay-rate fits, the verdicts of a run on every
certified claim (:func:`verdicts`, the one place that decides what passes),
mode counting, and the verdicts of a minimal-rank sweep (:func:`rank_scan`)."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
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
# a sweep's summary keys each alpha by its %g text, so a sweep's alphas must differ there
alpha_key = "{:g}".format

# sweep cells: the smallest grid, and the step over the explicit stability limit
SWEEP_M_MIN = 64
SWEEP_SAFETY = 0.4


# ---------------------------------------------------------------------------
# closed-loop hypothesis checks

def certified_c(spec: InterpolantSpec) -> float | None:
    """Certified interpolation constant c with defect <= c h ||.||_H1.

    Volume and nodal families carry c = 1; the fourier family with the mean
    carries c = 1/pi.  Without the mean (constants invisible) and for the
    delta family no finite constant exists.  The exact band constants
    (:func:`oracle.bh_constant`) are smaller: 1/pi for volume, 1/pi for nodal
    at the cell midpoints, and N/((N+1) pi) for fourier.
    """
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

    - thm21_proof: volume elements.  I_h = P is the orthogonal projection
      onto cell constants, and ||u - Pu|| <= (h / pi) ||u_x|| holds cell by
      cell (the sharp constant for zero mean on an interval of width h; Payne
      & Weinberger, ARMA 5, 1960).  With kappa = nu (pi / h)^2 = nu (pi N / L)^2,
        1/2 d/dt ||u||^2 <= -nu ||u_x||^2 + alpha ||u||^2 - mu ||Pu||^2
                         <= -(kappa - alpha) ||u||^2 - (mu - kappa) ||Pu||^2,
      so ||u||^2 decays at rate 2 (min(mu, kappa) - alpha), certified when it
      is positive.  No rate can beat 2 (kappa - alpha), the rate of
      cos(N pi x / L): it has zero mean on every cell, so P never sees it
    - thm21_printed: the paper's stated (dimensionally inconsistent)
      hypothesis mu >= nu > (h / 2 pi)^2 max(alpha, mu) and its rate
      nu (2 pi N / L)^2 - alpha, flagged separately and never gated (nu=1,
      alpha=64, mu=100, N=2, L=1 meets it, yet cos(2 pi x) grows)
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
        kappa = nu * (np.pi / h) ** 2
        rate21 = 2.0 * (min(mu, kappa) - alpha)
        thm21_proof = TheoremCheck(True, bool(rate21 > 0), rate21, {"kappa": kappa})
        threshold = (h / (2 * np.pi)) ** 2 * max(alpha, mu)
        thm21_printed = TheoremCheck(True, bool(mu >= nu > threshold),
                                     nu * (2 * np.pi * spec.N / L) ** 2 - alpha,
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


def certified(p: ClosedLoopParams) -> bool:
    """Whether a theorem certifies that ||u||^2 decays to zero under ``p``:
    the hypotheses of thm21 (the proof's form), thm51 or thm71 hold."""
    report = check_conditions(p)
    return report.thm21_proof.satisfied or report.thm51.satisfied or report.thm71.satisfied


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
# verdicts

def verdicts(traj: TrajectoryRecord, p: ClosedLoopParams, fit_t0: float | None = None,
             blowup: BlowupError | None = None) -> dict:
    """The verdicts of one run on every certified claim, keyed as ``summary.json``
    holds them: the condition report, the decay fit (from ``fit_t0``, by default
    1/r when thm51 applies with r > 0, else 0), the decay bounds, thm41's
    absorbing ball, the energy identity and ``failed_checks``.  A verdict whose
    hypotheses fail is None; a blow-up fails every gated one that applies."""
    report = check_conditions(p)

    if fit_t0 is None:
        r = report.thm51.predicted_rate if report.thm51.applies else None
        fit_t0 = 1.0 / r if (r is not None and r > 0) else 0.0
    try:
        fit_out = asdict(fit_decay_rate(traj, fit_t0))
    except NoFitError as err:
        fit_out = {"error": str(err)}
    fitted_rate = fit_out.get("rate")

    decayed = bool(len(traj) >= 2 and traj.l2[-1] < traj.l2[0])

    def bound_check(chk: TheoremCheck, fitted: bool = False) -> dict:
        """The verdict on one decay bound; ``fitted`` gates the fitted rate
        instead of the envelope at every record."""
        applicable = bool(chk.applies and chk.satisfied)
        entry = {"applies": bool(chk.applies), "hypotheses_ok": bool(chk.satisfied),
                 "predicted_rate": chk.predicted_rate, "slack": DECAY_SLACK,
                 "passed": False if applicable else None}
        if applicable and blowup is None:
            rate = chk.predicted_rate
            if fitted:
                entry["passed"] = bool(decayed and (rate <= 0 or fitted_rate is not None
                                                    and fitted_rate >= (1.0 - DECAY_SLACK) * rate))
                entry["fitted_rate"] = fitted_rate
            else:
                entry["passed"] = verify_decay_bound(traj, rate, DECAY_SLACK)
        return entry

    checks = {"thm21": bound_check(report.thm21_proof, fitted=True),
              "thm51": bound_check(report.thm51), "thm71": bound_check(report.thm71)}

    absorbing = {"applies": bool(report.thm41.applies and report.thm41.satisfied)}
    if absorbing["applies"]:
        r0_sq, r1_sq = absorbing_bounds(p)
        t_half = absorbing_entry_time(p, float(traj.l2[0]) ** 2 if len(traj) else 0.0)
        tail = np.asarray(traj.l2)[np.asarray(traj.times) >= t_half] ** 2
        sup_after = float(np.max(tail)) if tail.size else 0.0
        absorbing.update({
            "R0_sq": r0_sq, "R1_sq": r1_sq, "T_half": t_half,
            "sup_l2_sq_after_T_half": sup_after, "margin": ABSORBING_MARGIN,
            "passed": bool(blowup is None and sup_after <= (1.0 + ABSORBING_MARGIN) * r0_sq),
        })

    # one record has no derivative, so no residual and no verdict; the
    # identity may leave 1e-3 max(max ||u||_H1^2, 1)
    resid_max = float(np.max(traj.energy_residual)) if len(traj) >= 2 else None
    allowance = 1e-3 * max(float(np.max(traj.h1)) ** 2 if len(traj) else 0.0, 1.0)

    failed = [k for k, v in checks.items() if v["passed"] is False]
    if absorbing["applies"] and not absorbing["passed"]:
        failed.append("thm41-absorbing")

    return {"condition_report": asdict(report), "decay_fit": fit_out, "bound_checks": checks,
            "absorbing": absorbing, "energy_residual_max": resid_max, "energy_allowance": allowance,
            "energy_ok": None if resid_max is None else bool(resid_max <= allowance),
            "decayed": decayed, "failed_checks": failed}


def verdict_lines(v: dict) -> list[tuple[str, bool | None, str]]:
    """(key, passed, detail) of every verdict in ``v`` (from :func:`verdicts`)
    that applies to the run; the energy identity always applies."""
    lines = [(key, chk["passed"], f"rate {chk['predicted_rate']:.6g}")
             for key, chk in v["bound_checks"].items() if chk["passed"] is not None]
    ball = v["absorbing"]
    if ball["applies"]:
        lines.append(("thm41-absorbing", ball["passed"],
                      f"sup ||u||^2 after T_half {ball['sup_l2_sq_after_T_half']:.6g} "
                      f"<= {(1.0 + ABSORBING_MARGIN) * ball['R0_sq']:.6g}"))
    # reported, not gated: a record stride too coarse for a fast transient
    # (thm41's amplitude-10 start) fails the identity on a correct solution
    lines.append(("energy", v["energy_ok"], "one record" if v["energy_ok"] is None
                  else f"max residual {v['energy_residual_max']:.6g}, "
                       f"allowance {v['energy_allowance']:.6g}"))
    return lines


# ---------------------------------------------------------------------------
# minimal stabilizing controller rank

def minimal_rank(ratios: dict[int, float]) -> int | None:
    """The first rank N in ``ratios`` whose terminal ratio is at most
    ``STABILIZED_RATIO`` (far below any transient overshoot), or None;
    stabilization is not assumed monotone in N."""
    return next((N for N, ratio in ratios.items() if ratio <= STABILIZED_RATIO), None)


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
) -> dict:
    """The verdicts of a sweep over every rank N in ``Ns`` at every alpha (with its
    gain mu), keyed as the sweep's ``summary.json`` holds them: each cell's terminal
    ratio, whether it is stabilized and its certificate (:func:`certified`), and
    per ``alpha_key`` the minimal and the reference rank.  Each cell runs from
    the random band state of :func:`sweep_cell_config`; one :func:`integrate` call
    steps the cells of one grid family (Neumann grids of one L) and scheme
    together, cut by step count only where that is cheaper (a cell that blows
    up gets an infinite ratio).  Every rank is run: :func:`minimal_rank` does
    not assume stabilization monotone."""
    keys = [alpha_key(alpha) for alpha in alphas]
    if len(set(keys)) < len(keys):
        raise ValueError(f"alphas {keys} repeat a %g key")
    Ns = list(Ns)
    rows = [[sweep_cell_config(nu, alpha, L, mu, N, kind=kind, ic_seed=ic_seed,
                               ic_kmax=ic_kmax, ic_amplitude=ic_amplitude) for N in Ns]
            for alpha, mu in zip(alphas, mus)]
    outcomes = integrate(member for row in rows for member in row)
    ratios = [{N: terminal_ratio(cfg, p, outcomes) for N, (cfg, p) in zip(Ns, row)}
              for row in rows]
    minimal = [minimal_rank(terminal) for terminal in ratios]
    return {
        "alphas": list(alphas), "ratio_threshold": STABILIZED_RATIO,
        "cells": [{"alpha": alpha, "N": N, "mu": p.mu, "terminal_ratio": terminal[N],
                   "stabilized": terminal[N] <= STABILIZED_RATIO, "certified": certified(p)}
                  for alpha, row, terminal in zip(alphas, rows, ratios)
                  for N, (_, p) in zip(Ns, row)],
        "minimal_N": dict(zip(keys, minimal)),
        "predicted_N_ref": {key: reference_rank(nu, alpha, L) for key, alpha in zip(keys, alphas)},
        "consecutive_minimal_N_ratios": [None if n0 is None or n1 is None else n1 / n0
                                         for n0, n1 in zip(minimal, minimal[1:])],
    }
