"""Time integration of the scalar reaction-diffusion loop u_t = nu u_xx + alpha u - u^3 - mu I_h(u).

The stiff diffusion term is advanced exactly mode by mode; the reaction and
control terms are integrated explicitly (exponential Euler by default, a
two-stage exponential Runge-Kutta scheme optionally).  The cubic is always
evaluated on a padded grid, so the resolved band never sees aliasing from
the tripled bandwidth.  The stepper keeps the state as one real vector (the
coefficients, real and imaginary parts interleaved on periodic grids) and
folds everything linear in a step (diffusion, alpha u and the rank-N
feedback) into precomputed stage operators once, so a step is the cube plus
a few matrix-vector products.  On small grids every operator, the transforms
to and from the padded grid included, is one dense real matrix; above
``DENSE_MAX_ENTRIES`` the transforms are scipy's and the linear part a
diagonal plus the rank-N factors.  The recorder keeps each record's state,
padded-grid samples and observation products and reduces them to the
recorded series ``RECORD_CHUNK`` records at a time.

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

import math
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


# Entries of the real synthesis matrix up to which the stepper's stage
# operators are dense matrices (S is 2M x M Neumann, 4M x 2(M//2 + 1)
# periodic, and the step's cost grows with its entries while scipy's barely
# grows with M), so one entry count is the crossover for both boundary
# conditions.  In the fused-step timing table in CHANGES.md dense is ahead on
# both schemes up to 62k entries (Neumann M=176, periodic M=124), within 5% at
# 67k (Neumann M=184, periodic M=128) and behind on ETDRK2 from 74k (Neumann
# M=192, periodic M=140).
DENSE_MAX_ENTRIES = 64_000

# Records the recorder reduces together; its buffers hold this many state
# rows, padded-grid sample rows and observation rows.
RECORD_CHUNK = 64


def _real_columns(E: np.ndarray, parts: int) -> np.ndarray:
    """R with R @ c.view(float64) == (E @ c).real (``parts`` = 2 for complex c)."""
    if parts == 1:
        return E.real
    return np.stack([E.real, -E.imag], axis=-1).reshape(E.shape[0], -1)


def _real_rows(A: np.ndarray, parts: int) -> np.ndarray:
    """R with R @ v == (A @ v).view(float64) for real v."""
    if parts == 1:
        return A.real
    return np.stack([A.real, A.imag], axis=1).reshape(-1, A.shape[1])


def _stage_operators(grid: Grid1D, fine: Grid1D, weights, alpha: float, low_rank):
    """The maps of one ETD step on the real state x = c.view(float64).

    ``weights`` are (decay, w1, w2) in that layout; the linear part is
    Lin = alpha I - U @ V, with ``low_rank`` = (U, V) = (mu A_r, O_r), the
    real forms of the control operator, or None in the open loop.  Returns
    ``synth`` (x -> samples on ``fine``), ``analyze`` (such samples -> the
    layout of x, truncated to the band) and the stage maps
    P = diag(decay) + diag(w1) Lin, Q = diag(w1) analyze,
    W2L = diag(w2) Lin and W2T = diag(w2) analyze.

    Dense: ``synth`` is S, the fine grid's point evaluation of the resolved
    columns, ``analyze`` its Parseval-weighted transpose T, and every stage
    map is one precomputed matrix.  The coarse Nyquist column of an even M is
    a conjugate pair on the fine grid (twice its coarse-grid amplitude),
    exactly as in the padded irfft.  S is built from ``grid``'s own n
    columns, reweighted to the fine grid's multiplicities, so the unresolved
    columns are never formed.  Above ``DENSE_MAX_ENTRIES``: scipy's
    transforms on a zero-padded copy, with Lin kept as its diagonal plus the
    rank-N factors, since a dense n x n P would dwarf the transforms.
    """
    n = grid.w.shape[0]
    parts = 2 if grid.bc == fields.PERIODIC else 1
    decay, w1, w2 = weights
    if fine.M * n * parts > DENSE_MAX_ENTRIES:
        dtype = np.complex128 if parts == 2 else np.float64

        def synth(x: np.ndarray) -> np.ndarray:
            pad = np.zeros(fine.w.shape, dtype)
            pad[:n] = x.view(dtype)
            return samples_of(fine, pad)

        def analyze(v: np.ndarray) -> np.ndarray:
            return coeffs_of_samples(fine, v)[:n].view(np.float64)

        def lin(diag: np.ndarray, scale: np.ndarray):
            """x -> diag * x - diag(scale) U V x."""
            if low_rank is None:
                return lambda x: diag * x
            U, V = scale[:, None] * low_rank[0], low_rank[1]
            return lambda x: diag * x - U @ (V @ x)

        return (synth, analyze, lin(decay + alpha * w1, w1), lambda v: w1 * analyze(v),
                lin(alpha * w2, w2), lambda v: w2 * analyze(v))
    E = fields.point_eval_matrix(grid, fine.points()) * (fine.w[:n] / grid.w)
    S = _real_columns(E, parts)
    T = np.ascontiguousarray(S.T * (fine.dx / np.repeat(fine.w[:n], parts))[:, None])
    Lin = alpha * np.eye(n * parts)
    if low_rank is not None:
        Lin -= low_rank[0] @ low_rank[1]
    P = np.diag(decay) + w1[:, None] * Lin
    return (S.__matmul__, T.__matmul__, P.__matmul__, (w1[:, None] * T).__matmul__,
            (w2[:, None] * Lin).__matmul__, (w2[:, None] * T).__matmul__)


class Stepper:
    """Precomputed one-step map for a fixed (grid, params, dt, scheme).

    ``ctl`` is the controller's (O, A, q) triple on this grid, or None in
    the open loop.  The state is one real vector x = c.view(float64): the
    cosine coefficients on Neumann grids, the rfft coefficients with real
    and imaginary parts interleaved on periodic ones.  Everything in a step
    but the cube is linear, so ``_stage_operators`` folds the diffusion,
    alpha u and the rank-N feedback -mu A_r O_r (``_A``, ``_O``: the real
    forms of ``ctl.A`` and ``ctl.O``) into the ETD stage maps once:

        ETD1:    w = S x,  y = P x - Q w^3
        ETDRK2:  v = S y,  y + W2L (y - x) - W2T (v^3 - w^3)

    with S the synthesis on the padded grid ``_fine`` (2M Neumann, 4M
    periodic points), where the cube is taken without aliasing.  Up to
    ``DENSE_MAX_ENTRIES`` each map is one precomputed real matrix; above it
    the same algebra runs on scipy's transforms.  ``decay``, ``w1`` and
    ``w2`` are the ETD weights exp(z), dt phi1(z) and dt phi2(z),
    z = -nu k^2 dt, in the coefficient layout.  ``cube`` and
    ``fine_samples`` expose the unfused transforms.
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
        parts = 2 if grid.bc == fields.PERIODIC else 1
        if self.ctl is None:
            self._O = self._A = low_rank = None
        else:
            self._O = _real_columns(self.ctl.O, parts)
            self._A = _real_rows(self.ctl.A, parts)
            low_rank = (p.mu * self._A, self._O)
        weights = [np.repeat(v, parts) for v in (self.decay, self.w1, self.w2)]
        (self._synth, self._analyze, self._P, self._Q, self._W2L,
         self._W2T) = _stage_operators(grid, self._fine, weights, p.alpha, low_rank)

    def fine_samples(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """Samples on the dealiasing grid and its quadrature weight."""
        return self._synth(c.view(np.float64)), self._fine.dx

    def cube(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """Dealiased coefficients of u^3 and max|u| on the padded grid."""
        w = self._synth(c.view(np.float64))
        return self._analyze(w * w * w).view(c.dtype), float(np.max(np.abs(w)))

    def advance(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """One step; returns (new state, max|u| on the padded grid before the step).

        ``c`` is the state in the grid's coefficient layout or its real view
        x; the new state comes back in the same dtype.
        """
        x = c.view(np.float64)
        w = self._synth(x)
        w2 = w * w
        max_abs = math.sqrt(w2.max())
        limit = stability_limit(self.p, max_abs)
        if not self.dt <= limit:  # a NaN state gives a NaN limit
            raise BlowupError(np.nan, f"dt={self.dt:.3g} exceeds the stability limit {limit:.3g}")
        w3 = w2 * w
        y = self._P(x) - self._Q(w3)
        if self.scheme == "etdrk2":
            v = self._synth(y)
            y = y + self._W2L(y - x) - self._W2T(v * v * v - w3)
        return y.view(c.dtype), max_abs


SERIES = ("l2", "h1x", "h1", "l4p4", "gamma2", "ih_l2", "pairing")


class _Recorder:
    """The recorded series of one run, reduced ``RECORD_CHUNK`` records at a time.

    Each record keeps the state row x, its samples on the padded grid and
    H @ x, where H stacks the real observation matrix O_r over
    G = A_r^T diag(w): the observations are v = O_r x and the control
    pairing sum(w Re((A v) conj(c))) is v . (G x).  Every matrix product is
    one vector per record, because BLAS rounds a row differently depending
    on how many rows share the call and the series must not depend on the
    record stride; the norms, the L4 term and the observation series are
    elementwise products and row sums over the chunk, which numpy rounds
    row by row.
    """

    def __init__(self, st: Stepper, n_rec: int):
        grid = st.grid
        parts = 2 if grid.bc == fields.PERIODIC else 1
        self._p = st.p
        self._w = np.repeat(grid.w, parts)
        self._wk2 = self._w * np.repeat(grid.wavenumbers, parts) ** 2
        self._synth = st._synth
        self._dw = st._fine.dx
        rows = min(RECORD_CHUNK, n_rec)
        self._x = np.empty((rows, self._w.shape[0]))
        self._u = np.empty((rows, st._fine.M))
        if st.ctl is None:
            self._H = None
        else:
            self._H = np.vstack([st._O, st._A.T * self._w])
            self._hx = np.empty((rows, self._H.shape[0]))
            self._q = st.ctl.q
        self.times = np.empty(n_rec)
        self.series = {name: np.zeros(n_rec) for name in SERIES}
        self.count = 0      # records taken
        self._done = 0      # records reduced into ``series``

    def add(self, t: float, x: np.ndarray) -> None:
        i = self.count - self._done
        self.times[self.count] = t
        self._x[i] = x
        self._u[i] = self._synth(x)
        if self._H is not None:
            np.matmul(self._H, x, out=self._hx[i])
        self.count += 1
        if i + 1 == self._x.shape[0]:
            self.flush()

    def flush(self) -> None:
        k = self.count - self._done
        rows, s = slice(self._done, self.count), self.series
        x2 = np.square(self._x[:k])
        l2_sq = (x2 * self._w).sum(axis=1)
        h1x_sq = (x2 * self._wk2).sum(axis=1)
        s["l2"][rows] = np.sqrt(l2_sq)
        s["h1x"][rows] = np.sqrt(h1x_sq)
        s["h1"][rows] = np.sqrt(l2_sq / self._p.L ** 2 + h1x_sq)
        u2 = np.square(self._u[:k], out=self._u[:k])
        s["l4p4"][rows] = np.square(u2, out=u2).sum(axis=1) * self._dw
        if self._H is not None:
            n_obs = self._H.shape[0] // 2
            v, g = self._hx[:k, :n_obs], self._hx[:k, n_obs:]
            v2 = v * v
            s["gamma2"][rows] = v2.sum(axis=1)
            s["ih_l2"][rows] = np.sqrt((v2 * self._q).sum(axis=1))
            s["pairing"][rows] = (v * g).sum(axis=1)
        self._done = self.count

    def result(self) -> TrajectoryRecord:
        """The records taken so far, with their energy residual."""
        self.flush()
        cut = {name: values[: self.count] for name, values in self.series.items()}
        times = self.times[: self.count]
        res = energy_residual_series(
            times, cut["l2"], cut["h1x"], cut["l4p4"], cut["pairing"], self._p
        )
        return TrajectoryRecord(times=times, energy_residual=res, **cut)


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
    x = coeffs_of(cfg.ic.realize(grid)).view(np.float64)

    n_steps = cfg.n_steps
    rec_steps = list(range(0, n_steps + 1, cfg.record_every))
    if rec_steps[-1] != n_steps:
        rec_steps.append(n_steps)
    rec = _Recorder(st, len(rec_steps))
    rec.add(0.0, x)
    for start, stop in zip(rec_steps, rec_steps[1:]):
        try:
            for n in range(start + 1, stop + 1):
                x, _ = st.advance(x)
        except BlowupError as err:
            raise BlowupError(n * cfg.dt, err.reason, rec.result()) from None
        if not np.isfinite(x).all():
            raise BlowupError(stop * cfg.dt, "non-finite state", rec.result())
        rec.add(stop * cfg.dt, x)
    return rec.result()


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
