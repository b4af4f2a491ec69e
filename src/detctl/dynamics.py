"""Time integration of the scalar reaction-diffusion loop u_t = nu u_xx + alpha u - u^3 - mu I_h(u).

The stiff diffusion term is advanced exactly mode by mode; the reaction and
control terms are integrated explicitly (exponential Euler by default, a
two-stage exponential Runge-Kutta scheme optionally).  The cubic is always
evaluated on a padded grid, so the resolved band never sees aliasing from
the tripled bandwidth.  On small grids the transforms to and from the padded
grid are two precomputed real matrices, one matmul each way; above
``DENSE_MAX_ENTRIES`` they are scipy's transforms.

Every controller family enters through its (O, A, q) triple from
:func:`detctl.interpolants.control_operator`: the control term is
``A @ (O @ c).real`` and the recorded observation energy, interpolant norm
and control pairing follow from the observations alone, so nothing here
branches on the family.  Piecewise-constant controllers act through their
resolved-band projection, whose pairing against any resolved field equals the
exact continuum pairing; delta controllers act as mass-preserving single-cell
sources on periodic grids.  ``check_conditions`` reports, per stability
regime, whether the closed-loop hypotheses hold and the decay exponent they
predict for the squared L2 norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fields, interpolants
from .fields import Field, Grid1D, coeffs_of, coeffs_of_samples, samples_of
from .interpolants import DELTA, FOURIER, NODAL, VOLUME, InterpolantSpec


@dataclass(frozen=True)
class ClosedLoopParams:
    """Equation and feedback parameters; ``spec=None`` means open loop."""

    nu: float
    alpha: float
    L: float
    mu: float = 0.0
    spec: InterpolantSpec | None = None

    def __post_init__(self) -> None:
        if not self.nu > 0:
            raise ValueError(f"diffusion coefficient must be positive, got nu={self.nu}")
        if not self.alpha > 0:
            raise ValueError(f"instability coefficient must be positive, got alpha={self.alpha}")
        if not self.L > 0:
            raise ValueError(f"domain length must be positive, got L={self.L}")
        if not self.mu >= 0:
            raise ValueError(f"feedback gain must be nonnegative, got mu={self.mu}")
        if self.spec is not None and abs(self.spec.L - self.L) > 1e-14 * self.L:
            raise ValueError(f"interpolant spec length {self.spec.L} differs from L={self.L}")

    @property
    def open_loop(self) -> bool:
        return self.mu == 0.0 or self.spec is None


SINGLE_MODE = "single-mode"
RANDOM_BAND = "random-band"
CONSTANT = "constant"


@dataclass(frozen=True)
class ICSpec:
    """Named initial-condition presets.

    - single-mode(k, amplitude): amplitude * cos(k pi x / L) (Neumann) or
      amplitude * cos(2 pi k x / L) (periodic)
    - random-band(seed, kmax, amplitude): seeded cosine/Fourier sum with the
      1/(k+1) amplitude law, rescaled to L2 norm ``amplitude``
    - constant(value)
    """

    kind: str
    k: int | None = None
    amplitude: float | None = None
    seed: int | None = None
    kmax: int | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind == SINGLE_MODE:
            if self.k is None or self.k < 0 or self.amplitude is None:
                raise ValueError("single-mode IC needs k >= 0 and an amplitude")
        elif self.kind == RANDOM_BAND:
            if self.seed is None or self.kmax is None or self.amplitude is None:
                raise ValueError("random-band IC needs seed, kmax, and amplitude")
            if self.kmax < 0:
                raise ValueError("random-band IC needs kmax >= 0")
        elif self.kind == CONSTANT:
            if self.value is None:
                raise ValueError("constant IC needs a value")
        else:
            raise ValueError(f"unknown IC kind {self.kind!r}")

    def realize(self, grid: Grid1D) -> Field:
        if self.kind == CONSTANT:
            return fields.constant_field(grid, self.value)
        if self.kind == SINGLE_MODE:
            if grid.bc == fields.NEUMANN:
                return fields.cosine_mode(grid, self.k, self.amplitude)
            return fields.field_from_function(
                grid, lambda x: self.amplitude * np.cos(2 * np.pi * self.k * x / grid.L)
            )
        if self.kmax > grid.M // 8:
            raise ValueError(
                f"random-band kmax={self.kmax} exceeds M/8={grid.M // 8}: cubic underresolved"
            )
        return fields.random_band(grid, self.kmax, self.seed, l2=self.amplitude)


# relative tolerance on T / dt being a whole number of steps
STEP_TOL = 1e-9


@dataclass(frozen=True)
class SimConfig:
    grid: Grid1D
    dt: float
    T: float
    ic: ICSpec
    record_every: int = 1
    scheme: str = "etd1"

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"time step must be positive, got dt={self.dt}")
        if not self.T > self.dt:
            raise ValueError(f"final time must exceed dt, got T={self.T}")
        steps = self.T / self.dt
        if abs(steps - round(steps)) > STEP_TOL * steps:
            raise ValueError(f"final time T={self.T} is not a whole number of steps dt={self.dt}")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if self.scheme not in ("etd1", "etdrk2"):
            raise ValueError(f"scheme must be 'etd1' or 'etdrk2', got {self.scheme!r}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass
class TrajectoryRecord:
    """Recorded norm and observation series of one run."""

    times: np.ndarray
    l2: np.ndarray
    h1x: np.ndarray
    h1: np.ndarray
    l4p4: np.ndarray
    gamma2: np.ndarray
    ih_l2: np.ndarray
    energy_residual: np.ndarray
    pairing: np.ndarray

    def __len__(self) -> int:
        return len(self.times)


class BlowupError(RuntimeError):
    """Integration failed; carries the failure time and any partial record."""

    def __init__(self, time: float, reason: str, record: TrajectoryRecord | None = None):
        super().__init__(f"integration failed at t={time:.6g}: {reason}")
        self.time = time
        self.reason = reason
        self.record = record


def stability_limit(p: ClosedLoopParams, max_abs_u: float) -> float:
    """Explicit-part step bound 0.5 / (alpha + 3 max|u|^2 + mu)."""
    return 0.5 / (p.alpha + 3.0 * max_abs_u ** 2 + p.mu)


def _phi1(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-7
    safe = np.where(small, 1.0, z)
    out = np.expm1(safe) / safe
    return np.where(small, 1.0 + z / 2.0 + z ** 2 / 6.0, out)


def _phi2(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-5
    safe = np.where(small, 1.0, z)
    out = (np.expm1(safe) - safe) / safe ** 2
    return np.where(small, 0.5 + z / 6.0 + z ** 2 / 24.0, out)


# Entries of the real synthesis matrix up to which the stepper transforms to
# and from its padded grid by dense matmuls (2M x M Neumann, 4M x 2(M//2 + 1)
# periodic).  The dense cube's cost grows with the entries and scipy's barely
# with M, so one entry count is the crossover for both boundary conditions:
# in the cube timing table in CHANGES.md dense is ahead up to 74k entries
# (periodic M=128, Neumann M=192), level within 6% from 75k to 80k (periodic
# M=136 and 140, Neumann M=200) and behind from 84k (periodic M=144, Neumann
# M=208).
DENSE_MAX_ENTRIES = 80_000


def _padded_transforms(grid: Grid1D, fine: Grid1D):
    """Synthesis c -> samples on ``fine`` and analysis of such samples back to
    ``grid``'s coefficient layout, truncated to its band.

    Dense: S is the fine grid's point evaluation of the resolved columns and T
    its Parseval-weighted transpose; on periodic grids both act on
    ``c.view(float)``, real and imaginary parts interleaved.  The coarse
    Nyquist column of an even M is a conjugate pair on the fine grid (twice
    its coarse-grid amplitude), exactly as in the padded irfft.  S is built
    from ``grid``'s own n columns, reweighted to the fine grid's
    multiplicities, so the unresolved columns are never formed.
    """
    n = grid.w.shape[0]
    parts = 2 if grid.bc == fields.PERIODIC else 1
    dtype = np.complex128 if parts == 2 else np.float64
    if fine.M * n * parts > DENSE_MAX_ENTRIES:
        def synth(c: np.ndarray) -> np.ndarray:
            pad = np.zeros(fine.w.shape, dtype)
            pad[:n] = c
            return samples_of(fine, pad)

        def analyze(v: np.ndarray) -> np.ndarray:
            return coeffs_of_samples(fine, v)[:n]

        return synth, analyze
    E = fields.point_eval_matrix(grid, fine.points()) * (fine.w[:n] / grid.w)
    S = np.stack([E.real, -E.imag], axis=-1).reshape(fine.M, -1) if parts == 2 else E
    T = np.ascontiguousarray(S.T * (fine.dx / np.repeat(fine.w[:n], parts))[:, None])
    return (lambda c: S @ c.view(np.float64)), (lambda v: (T @ v).view(dtype))


class Stepper:
    """Precomputed one-step map for a fixed (grid, params, dt, scheme).

    ``ctl`` is the controller's (O, A, q) triple on this grid, or None in
    the open loop.  The cubic is evaluated on the padded grid ``_fine`` (2M
    Neumann, 4M periodic points) through the transforms of
    ``_padded_transforms``: two precomputed real matrices up to
    ``DENSE_MAX_ENTRIES``, scipy's transforms above it.
    """

    def __init__(self, grid: Grid1D, p: ClosedLoopParams, dt: float, scheme: str = "etd1"):
        self.ctl = None if p.open_loop else interpolants.control_operator(p.spec, grid)
        self.grid = grid
        self.p = p
        self.dt = dt
        self.scheme = scheme
        z = -p.nu * grid.wavenumbers ** 2 * dt
        self.decay = np.exp(z)
        self.w1 = dt * _phi1(z)
        self.w2 = dt * _phi2(z)
        if grid.bc == fields.NEUMANN:
            self._fine = Grid1D(grid.L, 2 * grid.M, fields.NEUMANN)
        else:
            self._fine = Grid1D(grid.L, 4 * grid.M, fields.PERIODIC)
        self._synth, self._analyze = _padded_transforms(grid, self._fine)

    def observations(self, c: np.ndarray) -> np.ndarray:
        """The controller's observations of the state with coefficients c."""
        return (self.ctl.O @ c).real

    def control_coeffs(self, c: np.ndarray) -> np.ndarray:
        """Coefficients of I_h(u) for the active controller family."""
        return self.ctl.A @ self.observations(c)

    def fine_samples(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """Samples on the dealiasing grid and its quadrature weight."""
        return self._synth(c), self._fine.dx

    def cube(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """Dealiased coefficients of u^3 and max|u| on the padded grid."""
        w = self._synth(c)
        return self._analyze(w * w * w), float(np.max(np.abs(w)))

    def nonlin(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        cubed, max_abs = self.cube(c)
        out = self.p.alpha * c - cubed
        if self.ctl is not None:
            out = out - self.p.mu * self.control_coeffs(c)
        return out, max_abs

    def advance(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """One step; returns (new coefficients, max|u| before the step)."""
        n0, max_abs = self.nonlin(c)
        limit = stability_limit(self.p, max_abs)
        if not self.dt <= limit:  # a NaN state gives a NaN limit
            raise BlowupError(np.nan, f"dt={self.dt:.3g} exceeds the stability limit {limit:.3g}")
        pred = self.decay * c + self.w1 * n0
        if self.scheme == "etd1":
            return pred, max_abs
        n1, _ = self.nonlin(pred)
        return pred + self.w2 * (n1 - n0), max_abs


def simulate(cfg: SimConfig, p: ClosedLoopParams) -> TrajectoryRecord:
    """Integrate to T and record norms, observation energy, and the energy residual.

    The residual series is assembled afterwards from the recorded quantities:
    |d/dt ||u||^2 / 2 + nu ||u_x||^2 - alpha ||u||^2 + ||u||_L4^4 + mu <I_h u, u>|,
    with centered differencing inside the record and one-sided stencils at
    its ends.
    """
    grid = cfg.grid
    if abs(grid.L - p.L) > 1e-14 * p.L:
        raise ValueError(f"grid length {grid.L} differs from params length {p.L}")
    st = Stepper(grid, p, cfg.dt, cfg.scheme)
    ctl = st.ctl
    u0 = cfg.ic.realize(grid)
    c = coeffs_of(u0)

    n_steps = cfg.n_steps
    rec_steps = list(range(0, n_steps + 1, cfg.record_every))
    if rec_steps[-1] != n_steps:
        rec_steps.append(n_steps)
    n_rec = len(rec_steps)

    times = np.empty(n_rec)
    series = {name: np.empty(n_rec) for name in
              ("l2", "h1x", "h1", "l4p4", "gamma2", "ih_l2", "pairing")}

    def record(i: int, step_idx: int, c_now: np.ndarray) -> None:
        times[i] = step_idx * cfg.dt
        l2_sq = fields.l2_sq_of_coeffs(grid, c_now)
        h1x_sq = fields.h1x_sq_of_coeffs(grid, c_now)
        series["l2"][i] = np.sqrt(max(l2_sq, 0.0))
        series["h1x"][i] = np.sqrt(max(h1x_sq, 0.0))
        series["h1"][i] = np.sqrt(max(l2_sq / grid.L ** 2 + h1x_sq, 0.0))
        w, dw = st.fine_samples(c_now)
        w2 = w * w
        series["l4p4"][i] = float(np.sum(w2 * w2) * dw)
        if ctl is None:
            series["gamma2"][i] = 0.0
            series["ih_l2"][i] = 0.0
            series["pairing"][i] = 0.0
            return
        v = st.observations(c_now)
        v2 = v * v
        series["gamma2"][i] = float(np.sum(v2))
        series["ih_l2"][i] = float(np.sqrt(ctl.q @ v2))
        series["pairing"][i] = fields.inner_of_coeffs(grid, ctl.A @ v, c_now)

    def partial(upto: int) -> TrajectoryRecord:
        sl = slice(0, upto)
        cut = {name: series[name][sl].copy() for name in series}
        res = energy_residual_series(
            times[sl], cut["l2"], cut["h1x"], cut["l4p4"], cut["pairing"], p
        )
        return TrajectoryRecord(times=times[sl].copy(), energy_residual=res, **cut)

    record(0, 0, c)
    rec_i = 1
    for n in range(1, n_steps + 1):
        t = n * cfg.dt
        try:
            c, _ = st.advance(c)
        except BlowupError as err:
            raise BlowupError(t, err.reason, partial(rec_i)) from None
        if rec_i < n_rec and n == rec_steps[rec_i]:
            if not np.all(np.isfinite(c)):
                raise BlowupError(t, "non-finite state", partial(rec_i))
            record(rec_i, n, c)
            rec_i += 1

    residual = energy_residual_series(
        times, series["l2"], series["h1x"], series["l4p4"], series["pairing"], p
    )
    return TrajectoryRecord(times=times, energy_residual=residual, **series)


def _ddt(times: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative by polynomial stencils over the actual record times.

    Three-point centered inside and four-point one-sided at the ends (two
    points when there are fewer than four records), so an off-stride last
    record keeps the accuracy; on uniform spacing these are the classical
    weights.
    """
    n = len(y)
    out = np.zeros(n)
    if n < 2:
        return out
    ends = (1, 2, 3) if n >= 4 else (1,)
    out[1:-1] = _stencil_ddt(times, y, np.arange(1, n - 1), (-1, 1))
    out[0] = _stencil_ddt(times, y, 0, ends)
    out[-1] = _stencil_ddt(times, y, n - 1, tuple(-o for o in ends))
    return out


def _stencil_ddt(t: np.ndarray, y: np.ndarray, i, offsets: tuple[int, ...]):
    """Derivative at node(s) i of the polynomial through nodes i and i + offsets.

    Summed as weighted differences y[i + o] - y[i], which stay exact where
    the record barely changes.
    """
    d = [t[i + o] - t[i] for o in offsets]
    total = 0.0
    for j, o in enumerate(offsets):
        w = 1.0 / d[j]
        for k, dk in enumerate(d):
            if k != j:
                w = w * dk / (dk - d[j])
        total = total + w * (y[i + o] - y[i])
    return total


def energy_residual_series(times, l2, h1x, l4p4, pairing, p: ClosedLoopParams) -> np.ndarray:
    e = np.asarray(l2) ** 2
    d = _ddt(np.asarray(times), e)
    res = 0.5 * d + p.nu * np.asarray(h1x) ** 2 - p.alpha * e + np.asarray(l4p4)
    res = res + p.mu * np.asarray(pairing)
    return np.abs(res)


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

    def to_dict(self) -> dict:
        return {
            "applies": self.applies,
            "satisfied": self.satisfied,
            "predicted_rate": self.predicted_rate,
            "details": dict(self.details),
        }


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

    def to_dict(self) -> dict:
        return {
            "open_loop": self.open_loop,
            "kind": self.kind,
            "h": self.h,
            "c": self.c,
            "thm21_proof": self.thm21_proof.to_dict(),
            "thm21_printed": self.thm21_printed.to_dict(),
            "thm41": self.thm41.to_dict(),
            "thm51": self.thm51.to_dict(),
            "thm71": self.thm71.to_dict(),
        }


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
        proof_ok = (mu * h >= nu) and (nu > alpha * h ** 2 / (4 * np.pi ** 2))
        rate21 = nu * (2 * np.pi * spec.N / L) ** 2 - alpha
        thm21_proof = TheoremCheck(
            True, bool(proof_ok), rate21,
            {"mu_h": mu * h, "nu": nu, "alpha_h2_over_4pi2": alpha * h ** 2 / (4 * np.pi ** 2)},
        )
        printed_ok = (mu >= nu) and (nu > (h / (2 * np.pi)) ** 2 * max(alpha, mu))
        thm21_printed = TheoremCheck(
            True, bool(printed_ok), rate21,
            {"threshold": (h / (2 * np.pi)) ** 2 * max(alpha, mu)},
        )
    else:
        thm21_proof = thm21_printed = no

    if c is not None:
        cond36 = nu >= mu * c ** 2 * h ** 2
        r0_sq = (alpha + nu / L ** 2) ** 2 * L ** 3 / nu
        thm41 = TheoremCheck(True, bool(cond36), None,
                             {"mu_c2_h2": mu * c ** 2 * h ** 2, "R0_sq": r0_sq})
        r = mu - (2 * alpha + nu / L ** 2)
        thm51 = TheoremCheck(True, bool(r > 0 and cond36), float(r), {"r": float(r)})
    else:
        thm41 = thm51 = no

    if spec.kind == DELTA:
        ok = (mu > 4 * alpha) and (nu >= 2 * mu * h ** 2)
        thm71 = TheoremCheck(True, bool(ok), float(2 * (mu / 4 - alpha)),
                             {"four_alpha": 4 * alpha, "two_mu_h2": 2 * mu * h ** 2})
    else:
        thm71 = no

    return ConditionReport(False, spec.kind, h, c,
                           thm21_proof, thm21_printed, thm41, thm51, thm71)
