"""Scalar fields on [0, L]: grids, transforms, point evaluation, and norms.

A field is stored by its samples on a uniform grid and identified with the
trigonometric polynomial those samples determine.  Neumann grids sample at
cell midpoints x_j = (j + 1/2) L / M and expand in the cosine basis
cos(k pi x / L), so zero-slope walls hold exactly in the basis; periodic
grids sample at x_j = j L / M and use the complex Fourier basis.

``Grid1D`` owns the coefficient layout.  Its Parseval weights ``w`` turn
every norm and inner product into one contraction, sum(w * a * conj(b)),
exact for band-limited fields, and :func:`point_eval_matrix` evaluates
coefficients at arbitrary points.  Every transform is a numpy FFT: the
Neumann grid's type-2 DCT and its inverse are one M-point real FFT each
(Makhoul, IEEE TASSP 28(1), 1980).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np

NEUMANN = "neumann"
PERIODIC = "periodic"


@dataclass(frozen=True)
class Grid1D:
    """Uniform discretization of [0, L] with M cells."""

    L: float
    M: int
    bc: str = NEUMANN

    def __post_init__(self) -> None:
        if not (self.L > 0 and np.isfinite(self.L)):
            raise ValueError(f"domain length must be positive and finite, got L={self.L}")
        if self.M < 8:
            raise ValueError(f"resolution must satisfy M >= 8, got M={self.M}")
        if self.bc not in (NEUMANN, PERIODIC):
            raise ValueError(f"bc must be {NEUMANN!r} or {PERIODIC!r}, got {self.bc!r}")

    @property
    def dx(self) -> float:
        return self.L / self.M

    def points(self) -> np.ndarray:
        """Sample points: cell midpoints (Neumann) or j*L/M (periodic)."""
        j = np.arange(self.M)
        if self.bc == NEUMANN:
            return (j + 0.5) * self.dx
        return j * self.dx

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Modal wavenumbers k-hat: k*pi/L (Neumann), 2*pi*m/L (periodic).

        Built once per grid and read-only.
        """
        if self.bc == NEUMANN:
            k = np.arange(self.M) * np.pi / self.L
        else:
            k = np.arange(self.M // 2 + 1) * 2.0 * np.pi / self.L
        k.setflags(write=False)
        return k

    @cached_property
    def w(self) -> np.ndarray:
        """Parseval weights of the coefficient layout: ||u||^2 = sum(w * |c|^2).

        Neumann: L * (1, 1/2, ..., 1/2).  Periodic: L * (1, 2, ..., 2, 1):
        each rfft column past the mean stands for a conjugate pair, except
        the Nyquist column of an even M, so for odd M the last entry is 2.
        Built once per grid and read-only.
        """
        if self.bc == NEUMANN:
            w = np.full(self.M, 0.5 * self.L)
        else:
            w = np.full(self.M // 2 + 1, 2.0 * self.L)
            if self.M % 2 == 0:
                w[-1] = self.L
        w[0] = self.L
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class Field:
    """Real-valued samples of a function on a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.M,):
            raise ValueError(f"expected {self.grid.M} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field samples must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def coeffs_of(f: Field) -> np.ndarray:
    """Modal coefficients of a field.

    Neumann: real cosine coefficients c[k] of sum_k c[k] cos(k pi x / L),
    k = 0..M-1.  Periodic: complex coefficients c[m] of
    sum_m c[m] exp(2i pi m x / L) + c.c. for m = 1..M/2, plus the real
    mean c[0] (rfft layout, length M//2 + 1).
    """
    return coeffs_of_samples(f.grid, f.values)


def coeffs_of_samples(grid: Grid1D, values: np.ndarray, band: int | None = None) -> np.ndarray:
    """``coeffs_of`` on raw samples along the last axis, which are not
    checked for finiteness, so a non-finite state reaches the stepper's
    stability guard.  With ``band``, only the first ``band`` columns."""
    band = grid.w.shape[0] if band is None else band
    if grid.bc == NEUMANN:
        return _dct2(np.asarray(values, dtype=float), band)
    return np.fft.rfft(values)[..., :band] / grid.M


def samples_of(grid: Grid1D, coeffs: np.ndarray) -> np.ndarray:
    """Grid samples of coefficients in the layout of ``coeffs_of``, along
    the last axis; the columns past a shorter layout are zero."""
    if grid.bc == NEUMANN:
        return _idct2(np.asarray(coeffs, dtype=float), grid.M)
    return np.fft.irfft(np.asarray(coeffs) * grid.M, n=grid.M)


@cache
def _dct_twiddle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The twiddle t of the n-point DCT, t_k = (2/n) exp(-i pi k / 2n) for
    k = 0..n//2 with t_0 = 1/n (scaled to the cosine coefficients), and 1/t."""
    t = (2.0 / n) * np.exp(-0.5j * np.pi * np.arange(n // 2 + 1) / n)
    t[0] = 1.0 / n
    inv = 1.0 / t
    t.setflags(write=False)
    inv.setflags(write=False)
    return t, inv


def _dct2(u: np.ndarray, band: int) -> np.ndarray:
    """The first ``band`` cosine coefficients c of midpoint samples u along
    the last axis, u_j = sum_k c_k cos(k pi (j + 1/2) / n), by one n-point
    real FFT.

    v holds the even samples in order and then the odd ones reversed,
    (u_0, u_2, ..., u_3, u_1); with Z = t * rfft(v), c_k = Re Z_k and
    c_{n-k} = -Im Z_k for k = 0..n//2.
    """
    n = u.shape[-1]
    h = (n + 1) // 2    # even samples
    v = np.empty_like(u)
    v[..., :h] = u[..., ::2]
    v[..., h:] = u[..., n - 1 - n % 2::-2]
    z = np.fft.rfft(v)
    z *= _dct_twiddle(n)[0]
    if band <= n // 2 + 1:
        return z.real[..., :band].copy()
    c = np.empty(u.shape[:-1] + (band,))
    c[..., : n // 2 + 1] = z.real
    c[..., n // 2 + 1:] = -z.imag[..., h - 1:n - band:-1]
    return c


def _idct2(c: np.ndarray, n: int) -> np.ndarray:
    """Midpoint samples on n points of the cosine coefficients c along the
    last axis (zero past their last column), the inverse of :func:`_dct2`:
    Z_k = c_k - i c_{n-k}, one irfft of Z / t, and the even/odd order undone."""
    m = c.shape[-1]
    h = (n + 1) // 2
    inv = _dct_twiddle(n)[1]
    z = np.zeros(c.shape[:-1] + (n // 2 + 1,), dtype=complex)
    r = min(m, n // 2 + 1)
    np.multiply(c[..., :r], inv[:r], out=z[..., :r])
    if m > h:   # the columns past the middle are the imaginary parts
        z[..., n - m + 1:] -= 1j * inv[n - m + 1:] * c[..., m - 1:h - 1:-1]
    v = np.fft.irfft(z, n=n)
    u = np.empty_like(v)
    u[..., ::2] = v[..., :h]
    u[..., 1::2] = v[..., n - 1:h - 1:-1]
    return u


def field_from_function(grid: Grid1D, fn: Callable[[np.ndarray], np.ndarray]) -> Field:
    return Field(grid, np.asarray(fn(grid.points()), dtype=float))


def constant_field(grid: Grid1D, c: float) -> Field:
    return Field(grid, np.full(grid.M, float(c)))


def cosine_mode(grid: Grid1D, k: int, amplitude: float = 1.0) -> Field:
    """A * cos(k pi x / L) on a Neumann grid (k = 0 gives a constant)."""
    if grid.bc != NEUMANN:
        raise ValueError("cosine modes live on Neumann grids")
    if not 0 <= k < grid.M:
        raise ValueError(f"mode index k={k} out of range for M={grid.M}")
    c = np.zeros(grid.M)
    c[k] = amplitude
    return Field(grid, samples_of(grid, c))


def random_cosine_coeffs(rng: np.random.Generator, kmax: int) -> np.ndarray:
    """Seeded coefficients a_k ~ U[-1, 1] / (k + 1), k = 0..kmax."""
    k = np.arange(kmax + 1)
    return rng.uniform(-1.0, 1.0, kmax + 1) / (k + 1.0)


def random_band(grid: Grid1D, kmax: int, seed: int, l2: float | None = None) -> Field:
    """Random band-limited field with the 1/(k+1) amplitude law.

    Neumann grids draw cosine coefficients; periodic grids draw both cosine
    and sine amplitudes per wavenumber.  With ``l2`` set, the result is
    rescaled to that exact L2 norm.
    """
    hard = grid.M - 1 if grid.bc == NEUMANN else grid.M // 2 - 1
    if kmax < 0 or kmax > hard:
        raise ValueError(f"band limit kmax={kmax} not representable on M={grid.M}")
    rng = np.random.default_rng(seed)
    if grid.bc == NEUMANN:
        c = np.zeros(grid.M)
        c[: kmax + 1] = random_cosine_coeffs(rng, kmax)
        f = Field(grid, samples_of(grid, c))
    else:
        c = np.zeros(grid.M // 2 + 1, dtype=complex)
        c[0] = rng.uniform(-1.0, 1.0)
        for m in range(1, kmax + 1):
            a, b = rng.uniform(-1.0, 1.0, 2) / (m + 1.0)
            # a*cos + b*sin carried by the positive-frequency coefficient
            c[m] = 0.5 * (a - 1j * b)
        f = Field(grid, samples_of(grid, c))
    if l2 is not None:
        norm = l2_norm(f)
        if norm == 0.0:
            raise ValueError("cannot rescale a zero field to a nonzero L2 norm")
        f = Field(grid, f.values * (l2 / norm))
    return f


# ---------------------------------------------------------------------------
# norms, inner products and point evaluation

def inner_of_coeffs(grid: Grid1D, a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product straight from modal coefficients (Parseval): one
    contraction of Re(a * conj(b)) with the grid's weights over the last axis."""
    return float((a * np.conj(b)).real @ grid.w)


def l2_sq_of_coeffs(grid: Grid1D, coeffs: np.ndarray) -> float:
    """Squared L2 norm straight from modal coefficients (Parseval)."""
    return inner_of_coeffs(grid, coeffs, coeffs)


def h1x_sq_of_coeffs(grid: Grid1D, coeffs: np.ndarray) -> float:
    """Squared L2 norm of the derivative from modal coefficients."""
    kc = grid.wavenumbers * coeffs
    return inner_of_coeffs(grid, kc, kc)


def l2_norm(f: Field) -> float:
    """L2 norm, evaluated modally (Parseval)."""
    return float(np.sqrt(max(l2_sq_of_coeffs(f.grid, coeffs_of(f)), 0.0)))


def h1x_norm(f: Field) -> float:
    """L2 norm of the derivative, ||f_x||."""
    return float(np.sqrt(max(h1x_sq_of_coeffs(f.grid, coeffs_of(f)), 0.0)))


def point_eval_matrix(grid: Grid1D, x: np.ndarray) -> np.ndarray:
    """E with u(x) = (E @ c).real for the coefficients c of u on ``grid``.

    Neumann rows are cos(k pi x / L); periodic rows are exp(2i pi m x / L)
    times the multiplicity w / L of each rfft column.
    """
    theta = np.outer(np.atleast_1d(np.asarray(x, dtype=float)), grid.wavenumbers)
    if grid.bc == NEUMANN:
        return np.cos(theta)
    return np.exp(1j * theta) * (grid.w / grid.L)


def eval_field(f: Field, x: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric polynomial through the samples at points x.

    Exact for band-limited fields; nodal and delta observation use it.
    """
    return (point_eval_matrix(f.grid, x) @ coeffs_of(f)).real
