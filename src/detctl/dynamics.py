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
diagonal plus the rank-N factors.  A step returns the padded-grid samples of
its new state with it, so the next step's guard and cube and the recorder
read them and no state is synthesized twice.  One recorder per group keeps
each record's state rows, squared samples and observation products and
reduces them to the recorded series ``RECORD_CHUNK`` records at a time.

One engine steps a batch of runs: a :class:`Batch` steps its members that
share a grid, a step count, a record stride and a scheme as one (B, n) state,
a member that trips the stability guard leaves its group, and
:func:`simulate` reads one member's outcome.  A run on its own is a batch of
one, a (1, n) state on the same path; the guard compares the batch's largest
squared sample with a cap on max u^2 precomputed from each member's dt.

Every controller family enters through its (O, A, q) triple from
:func:`detctl.interpolants.control_operator`: the control term is
``A @ (O @ c).real`` and the recorded observation energy, interpolant norm
and control pairing follow from the observations alone, so nothing here
branches on the family.  Piecewise-constant controllers act through their
resolved-band projection, whose pairing against any resolved field equals the
exact continuum pairing; delta controllers act as mass-preserving single-cell
sources on periodic grids.  The module holds only the integrator: the
stability hypotheses and the rates they certify are in :mod:`detctl.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fields, interpolants
from .fields import Field, Grid1D, coeffs_of, coeffs_of_samples, samples_of
from .interpolants import InterpolantSpec


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

    - single-mode(k, amplitude): amplitude * cos(k pi x / L) (Neumann, k < M) or
      amplitude * cos(2 pi k x / L) (periodic, k <= M/2, where it is not aliased)
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
            if self.k > grid.M // 2:
                raise ValueError(f"single-mode k={self.k} exceeds M/2={grid.M // 2}: aliased")
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
    """Integration failed; carries the failure time and any partial record.

    ``Stepper.advance`` raises it before the step, with ``failed`` mapping
    the row of every member that tripped the guard to its own reason, so a
    batch can drop those members and retry the step for the rest.
    """

    def __init__(self, time: float, reason: str, record: TrajectoryRecord | None = None,
                 failed: dict[int, str] | None = None):
        super().__init__(f"integration failed at t={time:.6g}: {reason}")
        self.time = time
        self.reason = reason
        self.record = record
        self.failed = failed


def stability_limit(alpha, mu, max_abs_u):
    """Explicit-part step bound 0.5 / (alpha + 3 max|u|^2 + mu); scalars for
    one run, or per-member arrays for a batch."""
    return 0.5 / (alpha + 3.0 * max_abs_u ** 2 + mu)


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


def _padded_transforms(grid: Grid1D, fine: Grid1D) -> tuple[np.ndarray, np.ndarray] | None:
    """Dense S (x -> samples on ``fine``) and T (such samples -> x, truncated
    to the band), or None above ``DENSE_MAX_ENTRIES``.

    S is the fine grid's point evaluation of the resolved columns and T its
    Parseval-weighted transpose.  The coarse Nyquist column of an even M is a
    conjugate pair on the fine grid (twice its coarse-grid amplitude),
    exactly as in the padded irfft.  S is built from ``grid``'s own columns,
    reweighted to the fine grid's multiplicities, so the unresolved columns
    are never formed.
    """
    n = grid.w.shape[0]
    parts = 2 if grid.bc == fields.PERIODIC else 1
    if fine.M * n * parts > DENSE_MAX_ENTRIES:
        return None
    E = fields.point_eval_matrix(grid, fine.points()) * (fine.w[:n] / grid.w)
    S = _real_columns(E, parts)
    T = np.ascontiguousarray(S.T * (fine.dx / np.repeat(fine.w[:n], parts))[:, None])
    return S, T


def _applier(M: np.ndarray):
    """x -> M @ x for every member, as one bound call: ``M`` is one (n, m)
    map that all members share or a (B, n, m) stack, and the state is the
    batch's (B, m) rows (or one member's (m,) vector for a shared map)."""
    if M.ndim == 3:
        return partial(_stacked_matvec, M)
    return M.T.__rmatmul__


def _stacked_matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.matmul(M, x[:, :, None])[:, :, 0]


def _diagonal_plus_low_rank(d: np.ndarray, U, V, x: np.ndarray) -> np.ndarray:
    return d * x - U(V(x))


class Stepper:
    """Precomputed one-step map of B members that share a grid and a scheme.

    ``p`` and ``dt`` are one member's, or sequences with one entry per
    member; the state has shape (B, n), one row per member (a run on its own
    is B = 1), and a state of shape (n,) steps as its single row.  The state
    is the real view x = c.view(float64): the cosine coefficients on Neumann
    grids, the rfft coefficients with real and imaginary parts interleaved
    on periodic ones.  ``ctls`` holds each member's (O, A, q) triple on this
    grid, or None in the open loop.  Everything in a step but the cube is
    linear, so the diffusion, alpha u and the rank-N feedback are folded
    into the ETD stage maps once:

        ETD1:    w = S x,  y = P x - Q w^3
        ETDRK2:  v = S y,  y + W2L (y - x) - W2T (v^3 - w^3)

    with S the synthesis on the padded grid ``_fine`` (2M Neumann, 4M
    periodic points), where the cube is taken without aliasing, T the
    analysis back to the band, Lin = alpha I - mu A_r O_r (``_real_ctl``
    holds the real forms O_r, A_r of ``ctl.O``, ``ctl.A``),
    P = diag(decay) + diag(w1) Lin, Q = diag(w1) T, W2L = diag(w2) Lin and
    W2T = diag(w2) T.  ``decay``, ``w1`` and ``w2`` are the ETD weights
    exp(z), dt phi1(z) and dt phi2(z), z = -nu k^2 dt, one row per member.

    The maps are built as arrays and kept as their bound products
    (``_P``, ``_Q``, ``_W2L``, ``_W2T``, ``_synth``, ``_analyze``), each one
    call on the whole batch.  Up to ``DENSE_MAX_ENTRIES`` S and T are dense
    matrices, and when every member has the same parameters and dt (a
    single run always does) P, Q, W2L and W2T are too.  Otherwise Q and W2T
    are (B, n) weights on the T product, and P and W2L are (B, n) diagonals
    plus the rank-N feedback as (B, n, N) and (B, N, n) stacks, zero-padded
    to one rank and applied with ``np.matmul``: as fast as (B, n, n) stacks
    at M=64 and a tenth of their memory.  Above ``DENSE_MAX_ENTRIES`` S and
    T are scipy's transforms along the last axis and every P and W2L is a
    diagonal plus rank-N factors (one row of them for shared members).  BLAS
    rounds a product of several rows differently from one row, so a member
    of a batch may differ from its single run in the last bits; a given
    batch is deterministic.

    ``advance`` takes the state with its ``samples`` (w = S x, w^2 and the
    largest w^2) and returns the new state with its own: the synthesis of a
    step's first stage is the last product of the step before, so a step
    still makes one S product per stage.  It guards every member before the
    step on the samples it is given.  dt <= stability_limit reads
    max u^2 <= (0.5 / dt - alpha - mu) / 3, so the guard compares the
    largest squared sample of the batch with the smallest such cap; only
    when that fails does it compare each member's largest squared sample
    with its own cap and raise ``BlowupError`` with ``failed`` naming the
    rows past theirs (a NaN state included) and their ``stability_limit``.
    ``cube`` and ``fine_samples`` expose the unfused transforms.
    """

    def __init__(self, grid: Grid1D, p, dt, scheme: str = "etd1"):
        self.params = (p,) if isinstance(p, ClosedLoopParams) else tuple(p)
        self.dt = np.broadcast_to(np.asarray(dt, dtype=float), (len(self.params),)).copy()
        self.grid = grid
        self.scheme = scheme
        if grid.bc == fields.NEUMANN:
            self._fine = Grid1D(grid.L, 2 * grid.M, fields.NEUMANN)
        else:
            self._fine = Grid1D(grid.L, 4 * grid.M, fields.PERIODIC)
        parts = 2 if grid.bc == fields.PERIODIC else 1
        ops = {}    # members with one spec share its control operator
        for q in self.params:
            if not q.open_loop and q.spec not in ops:
                ctl = interpolants.control_operator(q.spec, grid)
                ops[q.spec] = ctl, (_real_columns(ctl.O, parts), _real_rows(ctl.A, parts))
        self.ctls = tuple(None if q.open_loop else ops[q.spec][0] for q in self.params)
        self._real_ctl = tuple(None if q.open_loop else ops[q.spec][1] for q in self.params)
        alpha, mu, nu = (np.array([getattr(q, name) for q in self.params])
                         for name in ("alpha", "mu", "nu"))
        z = -nu[:, None] * grid.wavenumbers ** 2 * self.dt[:, None]
        self.decay = np.exp(z)
        self.w1 = self.dt[:, None] * _phi1(z)
        self.w2 = self.dt[:, None] * _phi2(z)
        self._alpha, self._mu = alpha, mu
        self._caps = (0.5 / self.dt - alpha - mu) / 3.0   # on max u^2, per member
        self._cap_min = float(self._caps.min())

        members = list(zip(self.params, self.dt.tolist()))
        shared = len(set(members)) == 1
        decay, w1, w2 = (np.repeat(v, parts, axis=1) for v in (self.decay, self.w1, self.w2))
        stages = (w1, w2) if scheme == "etdrk2" else (w1,)  # weights of (P, Q) and (W2L, W2T)
        n = decay.shape[1]
        self._S, self._T = _padded_transforms(grid, self._fine) or (None, None)
        if self._S is not None:
            self._synth, self._analyze = _applier(self._S), _applier(self._T)
        else:
            self._synth, self._analyze = self._scipy_synth, self._scipy_analyze
        if self._S is not None and shared:
            Lin = alpha[0] * np.eye(n)
            if self._real_ctl[0] is not None:
                O, A = self._real_ctl[0]
                Lin -= (mu[0] * A) @ O
            lin = [w[0][:, None] * Lin for w in stages]
            lin[0] += np.diag(decay[0])
            lin_maps = [_applier(m) for m in lin]
            weighted = [_applier(w[0][:, None] * self._T) for w in stages]
        else:
            # each member's diagonal, its rank-N feedback U (V x) and its
            # weights on the T product, one row for all members when they
            # share them
            rows = 1 if shared else len(members)
            diags = [(decay + alpha[:, None] * w1)[:rows], (alpha[:, None] * w2)[:rows]]
            diags = [d[0] if shared else d for d in diags[: len(stages)]]
            factors = self._real_ctl[:rows]
            ranks = [f[0].shape[0] for f in factors if f is not None]
            lin_maps = [d.__mul__ for d in diags]
            if ranks:
                V = np.zeros((rows, max(ranks), n))
                U = np.zeros((len(stages), rows, n, max(ranks)))
                for i, f in enumerate(factors):
                    if f is not None:
                        O, A = f
                        V[i, : O.shape[0]] = O
                        for k, w in enumerate(stages):
                            U[k, i, :, : O.shape[0]] = w[i][:, None] * (mu[i] * A)
                if shared:
                    V, U = V[0], U[:, 0]
                lin_maps = [partial(_diagonal_plus_low_rank, d, _applier(u), _applier(V))
                            for d, u in zip(diags, U)]
            analyze = self._analyze
            weighted = [lambda v, r=(w[0] if shared else w): r * analyze(v) for w in stages]
        self._P, self._Q = lin_maps[0], weighted[0]
        self._W2L, self._W2T = (lin_maps[1], weighted[1]) if len(stages) == 2 else (None, None)

    def _scipy_synth(self, x: np.ndarray) -> np.ndarray:
        n = self.grid.w.shape[0]
        dtype = np.complex128 if self.grid.bc == fields.PERIODIC else np.float64
        pad = np.zeros(x.shape[:-1] + self._fine.w.shape, dtype)
        pad[..., :n] = x.view(dtype)
        return samples_of(self._fine, pad)

    def _scipy_analyze(self, v: np.ndarray) -> np.ndarray:
        c = coeffs_of_samples(self._fine, v)[..., : self.grid.w.shape[0]]
        return np.ascontiguousarray(c).view(np.float64)

    def fine_samples(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """Samples on the dealiasing grid and its quadrature weight."""
        return self._synth(c.view(np.float64)), self._fine.dx

    def cube(self, c: np.ndarray) -> tuple[np.ndarray, float]:
        """Dealiased coefficients of u^3 and max|u| on the padded grid."""
        w = self._synth(c.view(np.float64))
        return self._analyze(w * w * w).view(c.dtype), float(np.max(np.abs(w)))

    def samples(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.float64]:
        """The samples of state ``c`` that a step carries: w = S x on the
        padded grid, w^2 and the largest w^2."""
        w = self._synth(c.view(np.float64))
        w2 = w * w
        return w, w2, w2.max()

    def advance(self, c: np.ndarray, s: tuple) -> tuple[np.ndarray, tuple]:
        """One step of every member; returns the new state and its samples.

        ``c`` is the state in the grid's coefficient layout or its real view
        x, one row per member, and ``s`` its ``samples``; the new state comes
        back in the same dtype and shape, with its own ``samples``, which the
        next step and the recorder read.
        """
        x = c.view(np.float64)
        w, w2, top = s
        # a NaN state fails both comparisons
        if not top <= self._cap_min:
            row_max2 = w2.reshape(len(self.dt), -1).max(axis=1)
            limit = stability_limit(self._alpha, self._mu, np.sqrt(row_max2))  # for the message
            failed = {int(i): f"dt={self.dt[i]:.3g} exceeds the stability limit {limit[i]:.3g}"
                      for i in np.flatnonzero(~(row_max2 <= self._caps))}
            if failed:
                raise BlowupError(np.nan, next(iter(failed.values())), failed=failed)
        w3 = w2 * w
        y = self._P(x) - self._Q(w3)
        if self.scheme == "etdrk2":
            v = self._synth(y)
            y = y + self._W2L(y - x) - self._W2T(v * v * v - w3)
        # ``samples`` of y, inline: a call per step costs ~1% of a batch step
        w = self._synth(y)
        w2 = w * w
        return y.view(c.dtype), (w, w2, w2.max())


SERIES = ("l2", "h1x", "h1", "l4p4", "gamma2", "ih_l2", "pairing")


class _Recorder:
    """The recorded series of a group's members, reduced ``RECORD_CHUNK`` records at a time.

    Each record keeps, for every live member, the state row x, the squared
    samples w^2 its step left on the padded grid and H x, where H stacks the
    real observation matrix O_r over G = A_r^T diag(w): the observations are
    v = O_r x and the control pairing sum(w Re((A v) conj(c))) is v . (G x).
    H is one matrix when the members share a controller and otherwise a
    (B, 2r, n) stack, zero-padded to one rank r; its product is one call on
    the live rows per record.  The norms, the L4 term and the observation
    series are elementwise products and row sums over the chunk, which numpy
    rounds row by row, so a record depends on neither the stride nor the
    chunk; a batch's records differ from its members' single runs in the
    last bits, as its states do (see ``Stepper``).
    """

    def __init__(self, st: Stepper, steps: list[int]):
        grid = st.grid
        parts = 2 if grid.bc == fields.PERIODIC else 1
        B = len(st.params)
        self._params, self._dt, self._steps = st.params, st.dt, steps
        self._w = np.repeat(grid.w, parts)
        self._wk2 = self._w * np.repeat(grid.wavenumbers, parts) ** 2
        self._L2 = np.array([q.L ** 2 for q in st.params])
        self._dw = st._fine.dx
        rows = min(RECORD_CHUNK, len(steps))
        self._x = np.empty((rows, B, self._w.shape[0]))
        self._u2 = np.empty((rows, B, st._fine.M))
        self._H = None
        if any(f is not None for f in st._real_ctl):
            # zero-padded to the largest rank r, and one matrix for shared rows
            r = max(f[0].shape[0] for f in st._real_ctl if f is not None)
            H, q = np.zeros((B, 2 * r, self._w.shape[0])), np.zeros((B, r))
            for i, f in enumerate(st._real_ctl):
                if f is not None:
                    k = f[0].shape[0]
                    H[i, :k], H[i, r : r + k], q[i, :k] = f[0], f[1].T * self._w, st.ctls[i].q
            shared = len({id(f) for f in st._real_ctl}) == 1
            self._H, self._q = (H[0], q[0]) if shared else (H, q)
            self._observe = _applier(self._H)
            self._hx = np.empty((rows, B, 2 * r))
        self._series = {name: np.zeros((B, len(steps))) for name in SERIES}
        self.live = np.arange(B)     # the member in each row of the state
        self.count = 0      # records taken
        self._done = 0      # records reduced into ``_series``

    def add(self, x: np.ndarray, s: tuple) -> None:
        """Record state ``x`` of the live members, with its ``Stepper.samples``."""
        i = self.count - self._done
        self._x[i] = x
        self._u2[i] = s[1]
        if self._H is not None:
            self._hx[i] = self._observe(x)
        self.count += 1
        if i + 1 == self._x.shape[0]:
            self.flush()

    def keep(self, rows: list[int]) -> None:
        """Go on with only the live members in ``rows``."""
        self.flush()
        self.live, b = self.live[rows], len(rows)
        self._x, self._u2 = self._x[:, :b], self._u2[:, :b]
        if self._H is not None:
            self._hx = self._hx[:, :b]
            if self._H.ndim == 3:
                self._H, self._q = self._H[rows], self._q[rows]
                self._observe = _applier(self._H)

    def flush(self) -> None:
        k = self.count - self._done
        at, s = (self.live, slice(self._done, self.count)), self._series
        x2 = np.square(self._x[:k])
        l2_sq = (x2 * self._w).sum(axis=-1)
        h1x_sq = (x2 * self._wk2).sum(axis=-1)
        s["l2"][at] = np.sqrt(l2_sq).T
        s["h1x"][at] = np.sqrt(h1x_sq).T
        s["h1"][at] = np.sqrt(l2_sq / self._L2[self.live] + h1x_sq).T
        u2 = self._u2[:k]
        s["l4p4"][at] = (np.square(u2, out=u2).sum(axis=-1) * self._dw).T
        if self._H is not None:
            n_obs = self._hx.shape[-1] // 2
            v, g = self._hx[:k, :, :n_obs], self._hx[:k, :, n_obs:]
            v2 = v * v
            s["gamma2"][at] = v2.sum(axis=-1).T
            s["ih_l2"][at] = np.sqrt((v2 * self._q).sum(axis=-1)).T
            s["pairing"][at] = (v * g).sum(axis=-1).T
        self._done = self.count

    def result(self, m: int) -> TrajectoryRecord:
        """Member ``m``'s records so far, with their energy residual."""
        self.flush()
        cut = {name: values[m, : self.count] for name, values in self._series.items()}
        times = np.array(self._steps[: self.count]) * self._dt[m]
        res = energy_residual_series(
            times, cut["l2"], cut["h1x"], cut["l4p4"], cut["pairing"], self._params[m]
        )
        return TrajectoryRecord(times=times, energy_residual=res, **cut)


class Batch:
    """Runs that are integrated together.

    ``members`` are (SimConfig, ClosedLoopParams) pairs.  The members with
    the same grid, step count, record stride and scheme form one group,
    stepped as one (B, n) state by one ``Stepper`` and recorded by one
    recorder (their dt, initial state and parameters may differ).  A group is
    integrated the first time :func:`simulate` asks for one of its members,
    and every member's outcome is kept for its own call.  A member that
    trips the stability guard, or whose recorded state is not finite, leaves
    its group with its failure time and partial record; the others go on.
    """

    def __init__(self, members) -> None:
        groups: dict[tuple, dict] = {}
        self._group: dict[tuple, dict] = {}     # each member's group, in order
        for cfg, p in members:
            if abs(cfg.grid.L - p.L) > 1e-14 * p.L:
                raise ValueError(f"grid length {cfg.grid.L} differs from params length {p.L}")
            group = groups.setdefault((cfg.grid, cfg.n_steps, cfg.record_every, cfg.scheme), {})
            group[cfg, p] = None
            self._group[cfg, p] = group
        self._outcome: dict[tuple, TrajectoryRecord | BlowupError] = {}

    def outcome(self, cfg: SimConfig, p: ClosedLoopParams) -> TrajectoryRecord | BlowupError:
        """The record of member (cfg, p), or the ``BlowupError`` that ended it."""
        if (cfg, p) not in self._outcome:
            if (cfg, p) not in self._group:
                raise ValueError("(cfg, p) is not a member of this batch")
            group = list(self._group[cfg, p])
            self._outcome.update(zip(group, _integrate(group)))
        return self._outcome[cfg, p]


def _integrate(members) -> list[TrajectoryRecord | BlowupError]:
    """The time loop of one group; each member's record or its error, in order."""
    cfgs = [cfg for cfg, _ in members]
    grid, n_steps, scheme = cfgs[0].grid, cfgs[0].n_steps, cfgs[0].scheme
    rec_steps = list(range(0, n_steps + 1, cfgs[0].record_every))
    if rec_steps[-1] != n_steps:
        rec_steps.append(n_steps)
    st = Stepper(grid, [p for _, p in members], [cfg.dt for cfg in cfgs], scheme)
    rec = _Recorder(st, rec_steps)
    x = np.stack([coeffs_of(cfg.ic.realize(grid)).view(np.float64) for cfg in cfgs])
    s = st.samples(x)
    out: list = [None] * len(members)
    n = k = 0   # steps taken, records taken
    while k < len(rec_steps):
        stop = rec_steps[k]
        try:
            for n in range(n + 1, stop + 1):
                x, s = st.advance(x, s)
        except BlowupError as err:  # step n was not taken
            failed = {row: (n, reason) for row, reason in err.failed.items()}
            n -= 1
        else:
            # a state that is not finite has a largest w^2 that is not; only
            # a finite state whose samples overflow needs the exact test
            if s[2] < np.inf or np.isfinite(x).all():
                rec.add(x, s)
                k += 1
                continue
            finite = np.isfinite(x).all(axis=1)
            failed = {int(row): (stop, "non-finite state") for row in np.flatnonzero(~finite)}
        # the failed members leave with their records, and the rest go on
        for row, (step, reason) in failed.items():
            m = rec.live[row]
            out[m] = BlowupError(step * cfgs[m].dt, reason, rec.result(m))
        keep = [row for row in range(len(x)) if row not in failed]
        if not keep:
            return out
        x = x[keep]
        rec.keep(keep)
        st = Stepper(grid, [members[m][1] for m in rec.live], [cfgs[m].dt for m in rec.live],
                     scheme)
        s = st.samples(x)
    for m in rec.live:
        out[m] = rec.result(m)
    return out


def simulate(cfg: SimConfig, p: ClosedLoopParams, batch: Batch | None = None) -> TrajectoryRecord:
    """Integrate to T and record norms, observation energy, and the energy residual.

    With ``batch``, a :class:`Batch` that holds (cfg, p), the run is stepped
    together with its group there; without it, it is a batch of its own.
    Raises the run's ``BlowupError``.  The residual series is assembled
    afterwards from the recorded quantities:
    |d/dt ||u||^2 / 2 + nu ||u_x||^2 - alpha ||u||^2 + ||u||_L4^4 + mu <I_h u, u>|,
    with centered differencing inside the record and one-sided stencils at
    its ends.
    """
    outcome = (Batch([(cfg, p)]) if batch is None else batch).outcome(cfg, p)
    if isinstance(outcome, BlowupError):
        raise outcome
    return outcome


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
