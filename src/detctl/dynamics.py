"""Time integration of the scalar reaction-diffusion loop u_t = nu u_xx + alpha u - u^3 - mu I_h(u).

The stiff diffusion term is advanced exactly mode by mode; the reaction and
control terms are integrated explicitly (exponential Euler by default, a
two-stage exponential Runge-Kutta scheme optionally).  The cubic is always
evaluated on a padded grid, so the resolved band never sees aliasing from
the tripled bandwidth: 2M points on Neumann grids, and on periodic ones the
smallest fast FFT size of at least 2M + 1 points, enough to keep both the
cube's band and the L4 quadrature exact.  The stepper keeps the state as
one real (B, n) array and folds everything linear in a step (diffusion,
alpha u and the rank-N feedback) into maps built once; :class:`Stepper`
states their algebra and the two bodies a step is made of.  A step returns
the padded-grid samples of its new state with it, so the next step's guard
and cube and the recorder read them and no state is synthesized twice.  One
recorder per group keeps each record's state rows, squared samples and
observation products and reduces them to the recorded series
``RECORD_CHUNK`` records at a time.

One engine steps a batch of runs: :func:`integrate` steps the runs that
can share one (B, n) state as a group on its largest grid (which grids
merge, and why, is stated there), whatever their record strides and, where
it costs fewer row-steps than apart, their step counts.  A member that
trips the stability guard or has taken its last record stays in its group
as a zero row.  It returns every member's outcome, from which
:func:`simulate` reads one.  A run on its own is a batch of
one, a (1, n) state on the same path; the guard compares the batch's
largest squared sample on the group's padded grid, which samples a member
of a smaller M more finely than its own, with a cap on max u^2 precomputed
from each member's dt, and only past the smallest cap looks at the rows of
each cap.

Every controller family enters through its (O, A, q) triple from
:func:`detctl.interpolants.control_operator`: the control term is
``A @ (O @ c).real`` and the recorded observation energy, interpolant norm
and control pairing follow from the observations alone, so nothing here
branches on the family.  A group stacks the triples of its distinct
controllers once, R rows for the sum R of their ranks, and a (B, R) gain
matrix puts each member's mu on its own rows, so the batch's feedback is
two products of the (B, n) state with an (n, R) stack; the open loop is a
zero gain row and a group with no feedback has R = 0, so nothing branches
on the open loop either.  Piecewise-constant controllers act through their
resolved-band projection, whose pairing against any resolved field equals
the exact continuum pairing; delta controllers act as mass-preserving
single-cell sources on periodic grids.  The module holds only the
integrator: the stability hypotheses and the rates they certify are in
:mod:`detctl.analysis`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import fields, interpolants
from .fields import Field, Grid1D, coeffs_of, coeffs_of_samples, samples_of
from .interpolants import InterpolantSpec


@dataclass(frozen=True)
class ClosedLoopParams:
    """Equation and feedback parameters; ``spec=None`` is the open loop and needs mu = 0."""

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
        if self.spec is None and self.mu > 0:
            raise ValueError(
                f"feedback gain mu={self.mu} needs a controller, or mu = 0 for the open loop")
        if self.spec is not None and abs(self.spec.L - self.L) > 1e-14 * self.L:
            raise ValueError(f"interpolant spec length {self.spec.L} differs from L={self.L}")

    @property
    def open_loop(self) -> bool:
        """No feedback acts: mu = 0, with or without a spec."""
        return self.mu == 0.0


SINGLE_MODE = "single-mode"
RANDOM_BAND = "random-band"
CONSTANT = "constant"


@dataclass(frozen=True)
class ICSpec:
    """Named initial-condition presets.

    - single-mode(k, amplitude): amplitude * cos(k pi x / L) (Neumann, k < M) or
      amplitude * cos(2 pi k x / L) (periodic, k <= (M - 1) // 2: a larger k
      aliases, and k = M/2 is an even M's Nyquist mode, whose column the
      recorded norms and the padded transform weigh twice)
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
            if self.k > (grid.M - 1) // 2:
                raise ValueError(f"single-mode k={self.k} exceeds (M-1)/2={(grid.M - 1) // 2}: "
                                 "aliased, or an even M's Nyquist mode")
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

    ``Stepper.advance`` raises it before the step that trips the guard, with
    ``failed`` mapping the row of every member past its cap to its own
    reason, ``steps`` the steps the call took before it and ``state`` the
    state and samples they reached, so a batch can release those rows and
    go on from there for the rest.
    """

    def __init__(self, time: float, reason: str, record: TrajectoryRecord | None = None,
                 failed: dict[int, str] | None = None, steps: int | None = None,
                 state: tuple | None = None):
        super().__init__(f"integration failed at t={time:.6g}: {reason}")
        self.time = time
        self.reason = reason
        self.record = record
        self.failed = failed
        self.steps = steps
        self.state = state


def stability_limit(alpha, mu, max_abs_u):
    """Explicit-part step bound 0.5 / (alpha + 3 max|u|^2 + mu); scalars for
    one run, or per-member arrays for a batch."""
    return 0.5 / (alpha + 3.0 * max_abs_u ** 2 + mu)


def _u2_cap(dt, alpha, mu):
    """The cap on max u^2 that ``stability_limit`` puts on a step: dt <=
    0.5 / (alpha + 3 max|u|^2 + mu) reads max u^2 <= (0.5 / dt - alpha - mu) / 3."""
    return (0.5 / dt - alpha - mu) / 3.0


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
# operators are dense matrices (S is 2M x M Neumann, N_f x 2(M//2 + 1)
# periodic with N_f = next_fast_len(2M + 1), and the step's cost grows with
# its entries while the FFTs' barely grows with M), so one entry count sets
# the switch for both boundary conditions: Neumann M <= 178, periodic
# M <= 175.  A single run with volume N=4 on Neumann grids, dense (the
# stacked body) against FFT (the factored body), in us a step (2-vCPU
# x86-64, OpenBLAS 0.3.31, min of 6 processes alternating the dense path
# forced on and off): at M=176 ETD1 16.0 against 28.9 and ETDRK2 49.5
# against 57.1; at M=184 ETD1 17.7 against 30.7 and ETDRK2 58.8 against
# 59.2 (median 61.2 against 62.6); at M=192 ETD1 21.2 against 28.3 and
# ETDRK2 69.6 against 56.9.  ETDRK2 crosses between M=184 and 192 and ETD1
# above 192; moving the constant would change which path, and so which
# rounding, a run at those M takes.
DENSE_MAX_ENTRIES = 64_000


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n (n >= 1): an FFT size with no prime
    factor above 5, on which the real FFTs above the crossover are fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            q = p
            while q < n:
                q *= 2
            best = min(best, q)
            p *= 3
        p5 *= 5
    return best


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


def _padded_transforms(grid: Grid1D, fine: Grid1D,
                       parts: int) -> tuple[np.ndarray, np.ndarray] | None:
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
    if fine.M * n * parts > DENSE_MAX_ENTRIES:
        return None
    E = fields.point_eval_matrix(grid, fine.points()) * (fine.w[:n] / grid.w)
    S = _real_columns(E, parts)
    return S, S.T * (fine.dx / np.repeat(fine.w[:n], parts))[:, None]


def _aligned(a: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``a`` that starts on a 64-byte boundary.

    Every matrix a step or a record multiplies by is one, a copy of its
    transpose made once, and so is every buffer of a Stepper's workspace;
    the elementwise weights are not copied.  numpy aligns its allocations
    to 16 bytes only, and with every map 16 bytes past a boundary the sweep
    group's step took 54.6 against 48.9 us, its (24 x 168) @ (168 x 84)
    analysis 15.7 against 12.8 us and a single run's (1 x 128) @ (128 x 64)
    product 1.50 against 1.18 us (2-vCPU x86-64, OpenBLAS 0.3.31, min of 5
    runs)."""
    a = np.asarray(a)
    buf = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


class Stepper:
    """Precomputed one-step map of B members that share a scheme and a grid.

    ``grid``, ``p`` and ``dt`` are one member's, or sequences with one entry
    per member.  The state is one real (B, n) array, one row per member (a
    run on its own is B = 1), which ``advance``, ``samples`` and ``cube``
    take and return: each row is the real view x = c.view(float64) of the
    member's coefficients, the cosine coefficients on Neumann grids, the
    rfft coefficients with real and imaginary parts interleaved on periodic
    ones.  Members' grids share L and the boundary condition, and periodic
    ones also M; Neumann members may differ in M (why is
    :func:`integrate`'s).  The Stepper works on the largest grid,
    ``grid``, with each member's state, controller columns and weights
    ``decay``, ``w1`` and ``w2`` zero past its own band, and its padded
    columns stay exactly 0.  The group's feedback is one operator
    stack that every member shares, read by every map and by the recorder:
    ``O`` (R, n), ``A`` (n, R) and ``q`` (R,) concatenate the real forms
    (O x = (O c).real, A v = (A v).view(float64)) of the (O, A, q) triples
    of the group's distinct controllers on their members' own grids, each
    (spec, grid) once and zero-padded to the band, so R is the sum of their
    ranks, and the
    gains ``G`` (B, R) hold each member's mu on its own controller's rows and
    0 elsewhere (an open-loop member is a zero row, and a group of open-loop
    members has R = 0).  Every member's feedback mu A O x is then
    F x = ((x O^T) * G) A^T.  Everything in a step but the cube is linear,
    so the diffusion, alpha u and the feedback are folded into the ETD stage
    maps once:

        ETD1:    w = S x,  y = P x - Q w^3
        ETDRK2:  v = S y,  y + W2L (y - x) - W2T (v^3 - w^3)

    with S the synthesis on the padded grid ``_fine`` (2M Neumann points;
    periodic, N_f = next_fast_len(2M + 1) points: the cube's modes reach
    3M/2, so an alias lands at |m| >= N_f - 3M/2 > M/2, outside the band,
    and the trapezoid sum of u^4 is exact), where the cube is taken without
    aliasing, T the analysis back to the band, Lin = alpha I - mu A O,
    P = diag(decay) + diag(w1) Lin, Q = diag(w1) T, W2L = diag(w2) Lin and
    W2T = diag(w2) T.  ``decay``, ``w1`` and ``w2`` are the ETD weights
    exp(z), dt phi1(z) and dt phi2(z), z = -nu k^2 dt, one row per member.

    S and T are two callables, ``_synth`` and ``_analyze``, (x, out) ->
    S x, built once and shared by the step, ``samples`` and ``cube``: up to
    ``DENSE_MAX_ENTRIES`` ``ndarray.dot`` with the dense matrices'
    transposes ST and TT, written into ``out``; above it the numpy FFT
    transforms of :mod:`detctl.fields` on the padded grid along the last
    axis, handed and returning only the band's columns, which ignore ``out``
    and return fresh arrays.  A step is made of one of two bodies, and in
    both ETDRK2 is ETD1 plus its corrector.  The stacked body serves a
    single run (B = 1) on the dense transforms.  A stage is linear in the
    pair of its state and its cube, so each is one product of a
    (1, n + N_f) operand with a stacked map built once:

        ETD1:    y = [x | w^3] [P, -Q]^T
        ETDRK2:  y + [z | c] [W2L, -W2T]^T,  z = y - x,  c = v^3 - w^3,

    and every stage writes its own slot of an operand, so nothing is
    copied into one: the step before writes x into the head of [x | w^3]
    and the step its cube into the tail, and the corrector writes z and c
    into the halves of [z | c] and its sum with y into the head of the next
    step's operand.  With a diagonal Lin (fourier on Neumann grids, the
    open loop) P and W2L are still dense blocks.  The factored body serves
    every other group, any batch and every run on the FFT transforms, with
    the (B, n) weights d1 = decay + alpha w1 and a2 = alpha w2:

        ETD1:    y = d1 x - w1 (T w^3 + F x)
        ETDRK2:  y + a2 z - w2 (F z + T (v^3 - w^3)),  z = y - x,

    so a stage costs its T product and two products of the (B, n) state
    with the (n, R) stack, whatever B and the members' controllers; a group
    with R = 0 (members with no feedback) adds no F x and makes neither
    product, which leaves every bit but the sign of an exact zero.  Every
    map either body multiplies by, S, T, the stacked maps, O and A, is a
    C-contiguous copy of its transpose, made once (``_aligned``).  The two
    bodies group the sums of a stage differently, and BLAS rounds a product
    of several rows differently from one row, so a member of a batch may
    differ from its single run in the last bits; a given batch is
    deterministic.

    A step writes every stage into the Stepper's workspace, 64-byte-aligned
    buffers allocated once: two (x, w, w^2) sets of state, samples and
    squared samples, one per parity of the step, and the temporaries of the
    stages.  Its statements are ufunc calls with ``out``, in-place
    arithmetic and ``ndarray.dot`` with ``out``, grouping every sum and
    product as the algebra above does, so the bits are those of the same
    algebra on fresh arrays, and a steady-state step allocates no array.
    A body is two closures ``_steps``, (w, w^2) -> the new (w, w^2, largest
    w^2), one per parity, each bound once to the buffers it reads and
    writes, so a step looks up no attribute.

    ``advance(x, s, k)`` takes the state with its ``samples`` (w = S x,
    w^2 and the largest w^2) and returns the state k steps on with its own:
    the synthesis of a step's first stage is the last product of the step
    before, so a step still makes one S product per stage.  Each step
    writes the set of the parity that its state is not, so the state and
    samples a call returns belong to the Stepper and stay valid until the
    next call, and through it if that call takes one step; a caller that
    keeps them longer keeps a copy.  ``samples`` and ``cube`` return fresh
    arrays.

    Every step is guarded on the samples of the state it starts from, which
    are on the padded grid of the largest M and so sample a member of a
    smaller M more finely than its own run does.  dt <= stability_limit
    reads max u^2 <= cap (``_u2_cap``), so the guard compares the largest
    squared sample of the batch with the smallest cap.  Only when that
    fails does it walk the blocks of contiguous rows of equal cap in
    ascending order of cap, up to the first cap that the batch's largest
    sample is within: each block is one reduction of its rows' samples
    against its cap, and only a block past its cap (a NaN state included)
    is read row by row.  :func:`integrate` orders a group's members by cap,
    so the blocks are as few as its caps.  Only when some rows are past
    theirs does it format their ``stability_limit`` and raise
    ``BlowupError`` with ``failed`` naming them, ``steps`` the steps the
    call took and ``state`` the state and samples they reached.
    ``release`` stops guarding an ended member's row (failed, or past its
    last record), which the batch then holds at 0, a fixed point of every
    stage map (d1 0 - w1 (T 0 + F 0) = 0): its cap becomes infinite and the
    blocks are cut again; the caps are all of a Stepper that changes.
    ``cube`` exposes the unfused transforms.  ``_w`` and ``_k`` hold each
    real column's Parseval weight and wavenumber, which the recorder reads.
    """

    def __init__(self, grid, p, dt, scheme: str = "etd1"):
        self.params = (p,) if isinstance(p, ClosedLoopParams) else tuple(p)
        B = len(self.params)
        grids = (grid,) * B if isinstance(grid, Grid1D) else tuple(grid)
        self.dt = np.broadcast_to(np.asarray(dt, dtype=float), (B,)).copy()
        self.grid = grid = max(grids, key=lambda g: g.M)
        if len(grids) != B or any((g.L, g.bc) != (grid.L, grid.bc)
                                  or (g.bc == fields.PERIODIC and g != grid) for g in grids):
            raise ValueError("a Stepper takes one grid per member, all of one L and bc, "
                             "and periodic grids of one M")
        self.scheme = scheme
        if grid.bc == fields.NEUMANN:
            self._fine = Grid1D(grid.L, 2 * grid.M, fields.NEUMANN)
        else:
            self._fine = Grid1D(grid.L, next_fast_len(2 * grid.M + 1), fields.PERIODIC)
        parts = 2 if grid.bc == fields.PERIODIC else 1
        # the real layout: each column's Parseval weight and wavenumber
        self._w, self._k = (np.repeat(v, parts) for v in (grid.w, grid.wavenumbers))
        n = self._w.shape[0]
        rows = {}   # each distinct controller's rows of the stack
        O, A, q = [np.zeros((0, n))], [np.zeros((n, 0))], [np.zeros(0)]
        for pm, g in zip(self.params, grids):
            if not pm.open_loop and (pm.spec, g) not in rows:
                ctl = interpolants.control_operator(pm.spec, g)
                start, pad = sum(len(v) for v in q), n - g.w.shape[0] * parts
                rows[pm.spec, g] = slice(start, start + len(ctl.q))
                O.append(np.pad(_real_columns(ctl.O, parts), ((0, 0), (0, pad))))
                A.append(np.pad(_real_rows(ctl.A, parts), ((0, pad), (0, 0))))
                q.append(ctl.q)
        self.O, self.A = np.concatenate(O), np.concatenate(A, axis=1)
        self.q = np.concatenate(q)
        self.G = np.zeros((B, len(self.q)))
        for i, (pm, g) in enumerate(zip(self.params, grids)):
            if not pm.open_loop:
                self.G[i, rows[pm.spec, g]] = pm.mu
        alpha, mu, nu = (np.array([getattr(pm, name) for pm in self.params])
                         for name in ("alpha", "mu", "nu"))
        z = -nu[:, None] * grid.wavenumbers ** 2 * self.dt[:, None]
        # each member's weights are 0 past its own band, so its padded columns stay 0
        band = np.arange(grid.w.shape[0]) < np.array([g.w.shape[0] for g in grids])[:, None]
        self.decay = np.where(band, np.exp(z), 0.0)
        self.w1 = np.where(band, self.dt[:, None] * _phi1(z), 0.0)
        self.w2 = np.where(band, self.dt[:, None] * _phi2(z), 0.0)
        self._alpha, self._mu = alpha, mu
        self._caps = _u2_cap(self.dt, alpha, mu)     # on max u^2, per member
        self._block()

        self._S, self._T = _padded_transforms(grid, self._fine, parts) or (None, None)
        if self._S is not None:
            ST, TT = _aligned(self._S.T), _aligned(self._T.T)

            def synth(x, out=None):
                return x.dot(ST, out=out)

            def analyze(v, out=None):
                return v.dot(TT, out=out)
        else:
            fine, cols = self._fine, grid.w.shape[0]
            layout = np.complex128 if parts == 2 else np.float64

            def synth(x, out=None):
                return samples_of(fine, x.view(layout))

            def analyze(v, out=None):
                return coeffs_of_samples(fine, v, cols).view(np.float64)
        self._synth, self._analyze = synth, analyze
        weights = (np.repeat(v, parts, axis=1) for v in (self.decay, self.w1, self.w2))
        if B == 1 and self._S is not None:
            self._x, self._steps = self._stacked(ST, *(v[0] for v in weights))
        else:
            self._x, self._steps = self._factored(*weights)

    def _stacked(self, ST, decay, w1, w2):
        """The state buffers and the steps, one per parity, of the stacked body."""
        (p,), T, scheme = self.params, self._T, self.scheme
        n, Nf = self._w.shape[0], self._fine.M
        Lin = p.alpha * np.eye(n) - (p.mu * self.A) @ self.O
        P = w1[:, None] * Lin + np.diag(decay)
        K1 = _aligned(np.concatenate([P, -w1[:, None] * T], axis=1).T)   # [P, -Q]^T
        K2 = _aligned(np.concatenate([w2[:, None] * Lin, -w2[:, None] * T], axis=1).T)
        # per parity the operand [x | w^3], and the samples w and w^2 of its x;
        # the predictor y, its samples v and the corrector's operand [z | c]
        def buf(cols):
            return _aligned(np.zeros((1, cols)))
        ops, ws = [buf(n + Nf) for _ in range(2)], [[buf(Nf), buf(Nf)] for _ in range(2)]
        y, v, zc = buf(n), buf(Nf), buf(n + Nf)
        z, c = zc[:, :n], zc[:, n:]

        def bind(i):
            U, x, w3 = ops[i], ops[i][:, :n], ops[i][:, n:]
            xn, (wn, sqn) = ops[1 - i][:, :n], ws[1 - i]
            if scheme == "etd1":
                def step(w, sq):
                    np.multiply(sq, w, out=w3)
                    u = U.dot(K1, out=xn).dot(ST, out=wn)
                    sq = np.multiply(u, u, out=sqn)
                    return u, sq, sq.item(sq.argmax())
            else:
                def step(w, sq):
                    np.multiply(sq, w, out=w3)
                    vy = U.dot(K1, out=y).dot(ST, out=v)
                    cv = np.multiply(vy, vy, out=c)
                    cv *= vy
                    cv -= w3
                    np.subtract(y, x, out=z)
                    x1 = zc.dot(K2, out=xn)
                    x1 += y
                    u = x1.dot(ST, out=wn)
                    sq = np.multiply(u, u, out=sqn)
                    return u, sq, sq.item(sq.argmax())
            return step
        return tuple(u[:, :n] for u in ops), (bind(0), bind(1))

    def _factored(self, decay, w1, w2):
        """The state buffers and the steps, one per parity, of the factored body."""
        B, n, Nf, R = len(self.params), self._w.shape[0], self._fine.M, len(self.q)
        synth, analyze, scheme = self._synth, self._analyze, self.scheme
        alpha = self._alpha[:, None]
        d1, a2, G = decay + alpha * w1, alpha * w2, self.G
        OT, AT = _aligned(self.O.T), _aligned(self.A.T)

        def buf(cols):
            return _aligned(np.zeros((B, cols)))
        # per parity the state x and its samples w and w^2; the stages'
        # temporaries: w^3, v and v^3 on the padded grid, the (B, n) sums a
        # and f, the feedback's (B, R) g and the difference z
        xs, ws = [buf(n) for _ in range(2)], [[buf(Nf), buf(Nf)] for _ in range(2)]
        w3, v, v3 = buf(Nf), buf(Nf), buf(Nf)
        a, f, g, z = buf(n), buf(n), buf(R), buf(n)

        # the transforms may return fresh arrays (the FFTs) in place of
        # ``out``; with R = 0 (an open-loop group) F d is 0 and not formed
        def weighted(c, d, wt):     # wt (T c + F d)
            s = analyze(c, a)
            if R:
                h = d.dot(OT, out=g)
                h *= G
                s += h.dot(AT, out=f)
            s *= wt
            return s

        def bind(i):
            x, y, (wn, sqn) = xs[i], xs[1 - i], ws[1 - i]

            def etd1(w, sq, out):     # the new state in y, and its samples in ``out``
                c = np.multiply(sq, w, out=w3)
                x1 = np.multiply(d1, x, out=y)
                x1 -= weighted(c, x, w1)
                return x1, synth(x1, out)

            if scheme == "etd1":
                def step(w, sq):
                    u = etd1(w, sq, wn)[1]
                    sq = np.multiply(u, u, out=sqn)
                    return u, sq, sq.item(sq.argmax())
            else:
                def step(w, sq):
                    x1, vy = etd1(w, sq, v)
                    c = np.multiply(vy, vy, out=v3)
                    c *= vy
                    c -= w3
                    d = np.subtract(x1, x, out=z)
                    s = weighted(c, d, w2)
                    d *= a2
                    x1 += d
                    x1 -= s
                    u = synth(x1, wn)
                    sq = np.multiply(u, u, out=sqn)
                    return u, sq, sq.item(sq.argmax())
            return step
        return tuple(xs), (bind(0), bind(1))

    def cube(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Dealiased coefficients of u^3 and max|u| on the padded grid, of the real state ``x``."""
        w = self._synth(x)
        return self._analyze(w * w * w), float(np.max(np.abs(w)))

    def samples(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """The samples of state ``x`` that a step carries: w = S x on the
        padded grid, w^2 and the largest w^2."""
        w = self._synth(x)
        w2 = w * w
        return w, w2, w2.item(w2.argmax())

    def _block(self) -> None:
        """Cut the rows into runs of equal cap, ``_blocks`` in ascending order of cap."""
        caps = self._caps
        cut = [0, *(np.flatnonzero(caps[1:] != caps[:-1]) + 1).tolist(), len(caps)]
        self._blocks = sorted((float(caps[lo]), lo, hi) for lo, hi in zip(cut, cut[1:]))
        self._cap_min = self._blocks[0][0]

    def release(self, row: int) -> None:
        """Stop guarding ``row``, whose member has ended and whose state is held at 0."""
        self._caps[row] = np.inf
        self._block()

    def _failed(self, w2: np.ndarray, top: float) -> dict[int, str]:
        """The rows whose squared samples ``w2`` are past their caps, each
        with its reason; ``top`` is their largest entry."""
        rows, past = w2.reshape(len(self.dt), -1), []
        for cap, lo, hi in self._blocks:
            if top <= cap:
                break
            if not rows[lo:hi].max() <= cap:
                past += (lo + np.flatnonzero(~(rows[lo:hi].max(axis=1) <= cap))).tolist()
        if not past:
            return {}
        past.sort()
        limit = stability_limit(self._alpha[past], self._mu[past], np.sqrt(rows[past].max(axis=1)))
        return {i: f"dt={self.dt[i]:.3g} exceeds the stability limit {lim:.3g}"
                for i, lim in zip(past, limit)}

    def advance(self, x: np.ndarray, s: tuple, k: int = 1) -> tuple[np.ndarray, tuple]:
        """``k`` guarded steps of every member; returns the new state and its samples.

        ``x`` is the real (B, n) state and ``s`` its ``samples``; the new
        state comes back with its own ``samples``, which the next step and
        the recorder read.  Both are the Stepper's arrays, valid until the
        next call, and through it if that call takes one step.  A step that
        trips the guard raises ``BlowupError`` carrying the steps taken and
        the state and samples they reached; with none taken, those are ``x``
        and ``s`` as they were.
        """
        xs, steps = self._x, self._steps
        i = int(x is xs[1])     # the parity of the state; a state of the caller's is copied in
        if x is not xs[i]:
            xs[i][...] = x
        w, w2, top = s
        cap = self._cap_min
        for j in range(k):
            # a NaN state fails every comparison
            if not top <= cap:
                failed = self._failed(w2, top)
                if failed:
                    raise BlowupError(np.nan, next(iter(failed.values())), failed=failed,
                                      steps=j, state=(xs[i], (w, w2, top)))
            w, w2, top = steps[i](w, w2)
            i ^= 1
        return xs[i], (w, w2, top)


SERIES = ("l2", "h1x", "h1", "l4p4", "gamma2", "ih_l2", "pairing")


class _Recorder:
    """The recorded series of a group's members, reduced ``RECORD_CHUNK`` records at a time.

    Each record keeps, for every member, the state row x, the squared
    samples w^2 its step left on the padded grid and H x, where H stacks the
    ``Stepper``'s shared real observation matrix O over A^T diag(w): the
    observations are v = O x and the control pairing sum(w Re((A v) conj(c)))
    is v . (A^T diag(w) x).  H is one matrix for every group, one call on the
    batch's rows per record, and ``flush`` keeps each member's own rows of v by
    the 0/1 mask G != 0 of the stack's gains: an open-loop member records
    zero observations, and a rank-0 group records them as empty sums.  The
    norms, the L4 term and the observation series are elementwise products
    and row sums over the chunk, which numpy rounds row by row, so a record
    depends on neither the stride nor the chunk; a batch's records differ
    from its members' single runs in the last bits, as its states do (see
    ``Stepper``).  The Neumann norms read only a member's own band, whose
    weights are those of its own grid, and the L4 sum on the group's padded
    grid is exact for every smaller band.  A row whose squared sums overflow
    is summed again scaled by its largest entry, so a finite norm records
    finite.  An ended member's row stays, at 0: a row is one member all run.
    A record is taken of every row at each of ``steps``, the union of the
    members' ``schedules``, and ``result`` reads a member's own columns;
    each member calls it as it ends, so ``flush`` returns at once when
    nothing is pending.
    """

    def __init__(self, st: Stepper, steps: list[int], schedules: list[list[int]]):
        B = len(st.params)
        self._params, self._dt, self._schedules = st.params, st.dt, schedules
        self._cols = [np.searchsorted(steps, own) for own in schedules]   # of ``steps``
        self._L2 = np.array([q.L ** 2 for q in st.params])
        self._series = {name: np.zeros((B, len(steps))) for name in SERIES}
        self.count = 0      # records taken
        self._done = 0      # records reduced into ``_series``
        self._w, self._wk2 = st._w, st._w * st._k ** 2
        self._dw = st._fine.dx
        rows = min(RECORD_CHUNK, len(steps))
        self._x = np.empty((rows, B, self._w.shape[0]))
        self._u2 = np.empty((rows, B, st._fine.M))
        H = np.concatenate([st.O, st.A.T * self._w])
        self._q, self._own = st.q, st.G != 0    # each member's own rows of the stack
        self._HT = _aligned(H.T)
        self._hx = np.empty((rows, B, H.shape[0]))

    def add(self, x: np.ndarray, s: tuple) -> None:
        """Record state ``x`` of every member, with its ``Stepper.samples``."""
        i = self.count - self._done
        self._x[i] = x
        self._u2[i] = s[1]
        x.dot(self._HT, out=self._hx[i])
        self.count += 1
        if i + 1 == self._x.shape[0]:
            self.flush()

    def flush(self) -> None:
        k = self.count - self._done
        if not k:
            return
        at, s = (slice(None), slice(self._done, self.count)), self._series
        x, L2 = self._x[:k], self._L2
        x2 = np.square(x)
        l2_sq = (x2 * self._w).sum(axis=-1)
        h1x_sq = (x2 * self._wk2).sum(axis=-1)
        h1_sq = l2_sq / L2 + h1x_sq
        norms = [np.sqrt(l2_sq), np.sqrt(h1x_sq), np.sqrt(h1_sq)]
        big = ~np.isfinite(h1_sq)     # a finite row whose squares overflow
        if big.any():   # rescaled by its largest entry (a recorded state is finite)
            top = np.abs(x[big]).max(axis=-1)
            y2 = np.square(x[big] / top[:, None])
            l2_sq, h1x_sq = (y2 * self._w).sum(axis=-1), (y2 * self._wk2).sum(axis=-1)
            h1_sq = l2_sq / np.broadcast_to(L2, big.shape)[big] + h1x_sq
            for norm, sq in zip(norms, (l2_sq, h1x_sq, h1_sq)):
                norm[big] = top * np.sqrt(sq)
        s["l2"][at], s["h1x"][at], s["h1"][at] = (norm.T for norm in norms)
        u2 = self._u2[:k]
        s["l4p4"][at] = (np.square(u2, out=u2).sum(axis=-1) * self._dw).T
        r = self._q.shape[0]
        v, g = np.where(self._own, self._hx[:k, :, :r], 0.0), self._hx[:k, :, r:]
        v2 = v * v
        s["gamma2"][at] = v2.sum(axis=-1).T
        ih_l2 = np.sqrt((v2 * self._q).sum(axis=-1))
        big = ~np.isfinite(ih_l2)
        if big.any():   # rescaled as the norms
            top = np.abs(v[big]).max(axis=-1)
            ih_l2[big] = top * np.sqrt((np.square(v[big] / top[:, None]) * self._q).sum(axis=-1))
        s["ih_l2"][at] = ih_l2.T
        s["pairing"][at] = (v * g).sum(axis=-1).T
        self._done = self.count

    def result(self, m: int) -> TrajectoryRecord:
        """Member ``m``'s records so far, with their energy residual."""
        self.flush()
        n = int(np.searchsorted(self._cols[m], self.count))
        cut = {name: values[m, self._cols[m][:n]] for name, values in self._series.items()}
        times = np.array(self._schedules[m][:n]) * self._dt[m]
        res = energy_residual_series(
            times, cut["l2"], cut["h1x"], cut["l4p4"], cut["pairing"], self._params[m]
        )
        return TrajectoryRecord(times=times, energy_residual=res, **cut)


def integrate(members) -> dict[tuple, TrajectoryRecord | BlowupError]:
    """Every member's record, or the ``BlowupError`` that ended it, keyed by member.

    ``members`` are (SimConfig, ClosedLoopParams) pairs; one listed twice is
    integrated once.  The members with the same scheme form one group if
    they also share a periodic grid, or Neumann grids of one length L,
    whatever their M, step count and record stride: a Neumann state on M
    points is exactly the first M columns of the same state on a larger
    Neumann grid (the basis, its wavenumbers and the weights ``Grid1D.w`` do
    not depend on M, and the cube dealiased on twice the largest M is exact
    for every smaller band), while an even M's periodic Nyquist column weighs L on its
    own grid and 2L on a larger one.  A group is cut into runs of adjacent
    step counts where that costs fewer row-steps (see :func:`_by_steps`),
    and a run, in order of M and between grids, where its stack of distinct
    controllers would hold more rows R than the M of its largest grid (see
    :func:`_split`).  Each part
    is stepped as one (B, n) state by one ``Stepper`` on its largest grid,
    its members in ascending order of their cap on max u^2 (see the
    ``Stepper``'s guard), to the largest step count any of them takes, and
    recorded by one recorder at every step that some member records (dt,
    T, record stride, initial state, grid and parameters may differ); each
    member's record holds only its own steps.  A member that has taken its
    last record ends with it; one that trips the stability guard, or whose
    state at a record step is not finite, ends with its failure time and
    partial record.  Either way its row stays in the batch at 0, unguarded,
    and the others go on.  Each member's outcome is the one it has on its
    own but in one case: a state that is not finite at another member's
    record step, which a guarded step from a finite state reaches only by
    overflow, ends there as "non-finite state", where on its own the guard
    would end it at the next step.
    """
    groups: dict[tuple, dict] = {}
    for cfg, p in members:
        if abs(cfg.grid.L - p.L) > 1e-14 * p.L:
            raise ValueError(f"grid length {cfg.grid.L} differs from params length {p.L}")
        on = cfg.grid if cfg.grid.bc == fields.PERIODIC else cfg.grid.L
        groups.setdefault((on, cfg.scheme), {})[cfg, p] = None
    outcomes = {}
    for group in groups.values():
        for part in (part for run in _by_steps(group) for part in _split(run)):
            part.sort(key=lambda m: _u2_cap(m[0].dt, m[1].alpha, m[1].mu))
            outcomes.update(zip(part, _integrate(part)))
    return outcomes


# What a group's step costs beyond its rows' work, in rows: a row costs less
# in a larger batch, and each run has its own setup, so this is set between
# the bounds the sweep preset's cells put on it.  At IC seed 0 and amplitude
# 1.5 (1,800 steps x 16, 2,247 x 8) one run took 123 ms against 132 as two,
# which needs more than 4; at amplitude 2 (1,800 x 16, 3,528 x 8) two took
# 165 against 190 ms as one, which needs fewer than 15 (2-vCPU x86-64,
# OpenBLAS 0.3.31, min of 5 runs)
_STEP_ROWS = 8


def _by_steps(group) -> list[list]:
    """``group``'s members in runs of adjacent step counts, cut where that
    costs the fewest row-steps.

    A run is stepped to its largest step count n with every row, so it
    costs n (_STEP_ROWS + B) row-steps, zero rows included; the cuts that
    minimize the sum are found over the members in descending order of
    step count, cutting only between two counts.  On the sweep preset at IC
    seed 7 the 24 cells (1,800 steps x 16, 1,908 x 6, 1,909 x 2) stay one
    run; at amplitude 10 they cut into three, one per alpha (about 8,800,
    33,300 and 131,400 steps)."""
    members = sorted(group, key=lambda m: -m[0].n_steps)
    n = [cfg.n_steps for cfg, _ in members]
    counts = [i for i in range(len(n)) if i == 0 or n[i] < n[i - 1]]   # where each count starts
    cost, start = [0], [0]   # of the cheapest cut of members[:j], and where its last run starts
    for j in range(1, len(n) + 1):
        c, i = min((cost[i] + n[i] * (_STEP_ROWS + j - i), i) for i in counts if i < j)
        cost.append(c)
        start.append(i)
    runs, j = [], len(n)
    while j:
        runs.append(members[start[j]:j])
        j = start[j]
    return runs


def _split(group) -> list[list]:
    """``group``'s members in parts, each a run of whole grids in order of M,
    cut before a grid whose distinct controllers would bring the part's
    stack past R = M rows.

    With R <= M the feedback's two products with the (n, R) stack cost no
    more than one dense (n, n) stage map.  Past it the products, whose gains
    are mostly zero, outgrow the calls that one group saves: uncut, the
    sweep preset over N = 1..64 (192 members, R = 2,080 on M = 256) took 3x
    as long as one group per grid (13 against 4.3 s on a 2-vCPU x86-64).  A
    grid's own members are never cut apart.
    """
    grids: dict[Grid1D, list] = {}
    for cfg, p in group:
        grids.setdefault(cfg.grid, []).append((cfg, p))
    parts: list[list] = []
    R = 0
    for grid in sorted(grids, key=lambda g: g.M):
        rank = sum(spec.rank for spec in {p.spec for _, p in grids[grid] if not p.open_loop})
        if not parts or R + rank > grid.M:
            parts.append([])
            R = 0
        parts[-1] += grids[grid]
        R += rank
    return parts


def _schedule(cfg: SimConfig) -> list[int]:
    """The steps a run records: every ``record_every``-th and its last."""
    steps = list(range(0, cfg.n_steps + 1, cfg.record_every))
    if steps[-1] != cfg.n_steps:
        steps.append(cfg.n_steps)
    return steps


def _integrate(members) -> list[TrajectoryRecord | BlowupError]:
    """The time loop of one group; each member's record or its error, in order.

    The loop steps from one record step of the union of the members'
    schedules to the next in one ``Stepper.advance`` call; after a record,
    the members whose last record it was end as a failed member does."""
    cfgs = [cfg for cfg, _ in members]
    schedules = [_schedule(cfg) for cfg in cfgs]
    steps = sorted(set().union(*schedules))    # every step some member records
    last: dict[int, list[int]] = {}     # records taken -> the members they end
    for m, own in enumerate(schedules):
        last.setdefault(bisect_left(steps, own[-1]) + 1, []).append(m)
    st = Stepper([cfg.grid for cfg in cfgs], [p for _, p in members], [cfg.dt for cfg in cfgs],
                 cfgs[0].scheme)
    rec = _Recorder(st, steps, schedules)
    x = np.zeros((len(cfgs), st.O.shape[1]))    # each member zero-padded to the group's band
    for row, cfg in zip(x, cfgs):
        c = coeffs_of(cfg.ic.realize(cfg.grid)).view(np.float64)
        row[:len(c)] = c
    s = st.samples(x)
    out: list = [None] * len(members)
    n = k = 0   # steps taken, records taken
    while True:
        stop = steps[k]
        try:
            x, s = st.advance(x, s, stop - n)
        except BlowupError as err:  # step n + 1 was not taken
            n += err.steps
            x, s = err.state
            ended = {row: (n + 1, reason) for row, reason in err.failed.items()}
        else:
            n = stop
            # a state that is not finite has a largest w^2 that is not; only
            # a finite state whose samples overflow needs the exact test
            if s[2] < np.inf or np.isfinite(x).all():
                rec.add(x, s)
                k += 1
                if k not in last:
                    continue
                # the members whose last record this is and that are still stepping
                ended = dict.fromkeys(m for m in last[k] if out[m] is None)
            else:
                finite = np.isfinite(x).all(axis=1)
                ended = {int(row): (stop, "non-finite state") for row in np.flatnonzero(~finite)}
        # an ended member takes its record so far; its row stays in the batch
        # at 0, which every stage map keeps at 0, and is no longer guarded
        for m, failure in ended.items():
            record = rec.result(m)
            out[m] = record if failure is None else BlowupError(
                failure[0] * cfgs[m].dt, failure[1], record)
            st.release(m)
        if None not in out:
            return out
        x[list(ended)] = 0.0
        s = st.samples(x)


def simulate(cfg: SimConfig, p: ClosedLoopParams,
             outcomes: dict | None = None) -> TrajectoryRecord:
    """Integrate to T and record norms, observation energy, and the energy residual.

    With ``outcomes``, the result of an :func:`integrate` call that held
    (cfg, p), the run's outcome is read from there; without it, the run is
    integrated on its own.  Raises the run's ``BlowupError``.
    """
    if outcomes is None:
        outcomes = integrate([(cfg, p)])
    elif (cfg, p) not in outcomes:
        raise ValueError("(cfg, p) is not a member of these outcomes")
    outcome = outcomes[cfg, p]
    if isinstance(outcome, BlowupError):
        raise outcome
    return outcome


def _ddt(times: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative by polynomial stencils over the actual record times.

    Three-point centered inside and four-point one-sided at the ends (two
    points when there are fewer than four records, and at least two), so an
    off-stride last record keeps the accuracy; on uniform spacing these are
    the classical weights.
    """
    n = len(y)
    out = np.zeros(n)
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
    """|d/dt ||u||^2 / 2 + nu ||u_x||^2 - alpha ||u||^2 + ||u||_L4^4 + mu <I_h u, u>|
    of a record, with centered differencing inside it and one-sided stencils
    at its ends; a record of one row (a run stopped at its first step) has
    no derivative, and its residual is nan."""
    e = np.asarray(l2) ** 2
    if len(e) < 2:
        return np.full(len(e), np.nan)
    d = _ddt(np.asarray(times), e)
    res = 0.5 * d + p.nu * np.asarray(h1x) ** 2 - p.alpha * e + np.asarray(l4p4)
    res = res + p.mu * np.asarray(pairing)
    return np.abs(res)
