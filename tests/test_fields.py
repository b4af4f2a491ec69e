import numpy as np
import pytest

from detctl import fields
from detctl.dynamics import ClosedLoopParams, Stepper
from detctl.fields import (
    Field,
    Grid1D,
    coeffs_of,
    constant_field,
    cosine_mode,
    eval_field,
    field_from_function,
    coeffs_of_samples,
    h1x_norm,
    l2_norm,
    point_eval_matrix,
    random_band,
    samples_of,
)


def neumann(L=1.0, M=64):
    return Grid1D(L, M, fields.NEUMANN)


def periodic(L=1.0, M=64):
    return Grid1D(L, M, fields.PERIODIC)


class TestGrid:
    def test_dx_exact(self):
        g = Grid1D(2.0, 16)
        assert g.dx == 2.0 / 16

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 4)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Grid1D(-1.0, 16)

    def test_rejects_bad_bc(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 16, "dirichlet")

    def test_points_layout(self):
        gn = neumann(M=8)
        assert np.allclose(gn.points(), (np.arange(8) + 0.5) / 8)
        gp = periodic(M=8)
        assert np.allclose(gp.points(), np.arange(8) / 8)

    def test_layout_vectors_cached_read_only(self):
        for g in (neumann(M=8), periodic(M=8)):
            fresh = Grid1D(g.L, g.M, g.bc)
            for vec in (g.w, g.wavenumbers):
                assert not vec.flags.writeable
            assert g.wavenumbers is g.wavenumbers and g.w is g.w
            assert g == fresh and hash(g) == hash(fresh)


class TestTransforms:
    def test_constant_has_only_mean(self):
        c = coeffs_of(constant_field(neumann(), 3.5))
        assert abs(c[0] - 3.5) < 1e-13
        assert np.max(np.abs(c[1:])) < 1e-13

    def test_single_mode_coefficient(self):
        g = neumann(M=64)
        c = coeffs_of(cosine_mode(g, 3))
        expected = np.zeros(64)
        expected[3] = 1.0
        assert np.max(np.abs(c - expected)) < 1e-12

    def test_roundtrip_random_band(self):
        g = neumann(M=128)
        f = random_band(g, kmax=16, seed=1)
        back = samples_of(g, coeffs_of(f))
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back - f.values)) < 1e-12 * scale

    def test_roundtrip_periodic(self):
        g = periodic(M=128)
        f = random_band(g, kmax=16, seed=2)
        back = samples_of(g, coeffs_of(f))
        assert np.max(np.abs(back - f.values)) < 1e-12 * np.max(np.abs(f.values))

    def test_rejects_nonfinite(self):
        g = neumann(M=8)
        bad = np.zeros(8)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(g, bad)

    def test_transform_linearity(self):
        g = neumann(M=64)
        f1 = random_band(g, kmax=10, seed=3)
        f2 = random_band(g, kmax=10, seed=4)
        combo = Field(g, 2.0 * f1.values - 0.5 * f2.values)
        lhs = coeffs_of(combo)
        rhs = 2.0 * coeffs_of(f1) - 0.5 * coeffs_of(f2)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


@pytest.mark.parametrize("bc", (fields.NEUMANN, fields.PERIODIC))
@pytest.mark.parametrize("M", (8, 9, 63, 64, 65, 192, 257))
@pytest.mark.parametrize("rows", ((), (3,)))
def test_transforms_match_point_evaluation_sums(bc, M, rows):
    # the FFT transforms against the dense sums of ``point_eval_matrix`` over
    # the whole layout, for one (n,) vector and a (B, n) stack
    g = Grid1D(1.0, M, bc)
    rng = np.random.default_rng(M)
    shape = rows + g.w.shape
    c = rng.uniform(-1.0, 1.0, shape)
    if bc == fields.PERIODIC:
        c = c + 1j * rng.uniform(-1.0, 1.0, shape)
        c[..., 0] = c[..., 0].real
        if M % 2 == 0:     # the Nyquist column of samples is real
            c[..., -1] = c[..., -1].real
    want = (c @ point_eval_matrix(g, g.points()).T).real
    u = samples_of(g, c)
    assert u.shape == rows + (M,)
    assert np.max(np.abs(u - want)) <= 1e-13 * np.max(np.abs(want))
    back = coeffs_of_samples(g, want)
    assert back.shape == shape
    assert np.max(np.abs(back - c)) <= 1e-13 * np.max(np.abs(c))
    v = rng.standard_normal(rows + (M,))
    assert np.max(np.abs(samples_of(g, coeffs_of_samples(g, v)) - v)) <= 1e-13 * np.max(np.abs(v))


class TestDerivative:
    def test_two_mode_derivative_norm(self):
        L = 1.0
        g = Grid1D(L, 128)
        f = field_from_function(
            g, lambda x: np.cos(2 * np.pi * x / L) + np.cos(5 * np.pi * x / L)
        )
        expected = (L / 2) * ((2 * np.pi / L) ** 2 + (5 * np.pi / L) ** 2)
        assert abs(h1x_norm(f) ** 2 - expected) < 1e-8 * expected


class TestNorms:
    def test_constant_norms(self):
        L, c = 2.0, 0.7
        f = constant_field(Grid1D(L, 32), c)
        assert abs(l2_norm(f) - abs(c) * np.sqrt(L)) < 1e-13

    def test_mode_l2(self):
        L = 3.0
        f = cosine_mode(Grid1D(L, 64), 4)
        assert abs(l2_norm(f) ** 2 - L / 2) < 1e-12

    def test_l4_closed_form(self):
        # (2 cos(pi x))^4 and (2 cos(2 pi x))^4 integrate to 16 * 3/8 = 6 on [0, 1];
        # the dealiasing grid of the stepper integrates the quartic exactly
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0)
        for f in (cosine_mode(neumann(M=64), 1, amplitude=2.0),
                  field_from_function(periodic(M=64), lambda x: 2.0 * np.cos(2 * np.pi * x))):
            st = Stepper(f.grid, p, dt=1e-3)
            w, dw = st.samples(coeffs_of(f).view(np.float64)[None])[0], st._fine.dx
            assert abs(np.sum(w ** 4) * dw - 6.0) < 1e-10

    def test_parseval_against_quadrature(self):
        g = neumann(M=256)
        f = random_band(g, kmax=20, seed=7)
        modal = l2_norm(f) ** 2
        # midpoint quadrature is exact for the squared band-limited field
        quad = np.sum(f.values ** 2) * g.dx
        assert abs(modal - quad) <= 1e-10 * modal

    def test_parseval_periodic(self):
        g = periodic(M=256)
        f = random_band(g, kmax=20, seed=8)
        modal = l2_norm(f) ** 2
        quad = np.sum(f.values ** 2) * g.dx
        assert abs(modal - quad) <= 1e-10 * modal

    def test_l2_rescale(self):
        f = random_band(neumann(), kmax=5, seed=10, l2=1.0)
        assert abs(l2_norm(f) - 1.0) < 1e-12


class TestEval:
    def test_eval_matches_samples(self):
        g = neumann(M=64)
        f = random_band(g, kmax=12, seed=11)
        assert np.max(np.abs(eval_field(f, g.points()) - f.values)) < 1e-11

    def test_eval_off_grid(self):
        g = neumann(L=2.0, M=64)
        f = cosine_mode(g, 3, amplitude=1.5)
        x = np.array([0.1234, 0.9, 1.77])
        assert np.max(np.abs(eval_field(f, x) - 1.5 * np.cos(3 * np.pi * x / 2.0))) < 1e-12

    def test_eval_periodic(self):
        g = periodic(M=64)
        f = field_from_function(g, lambda x: np.cos(2 * np.pi * x) - 0.3 * np.sin(4 * np.pi * x))
        x = np.array([0.21, 0.5, 0.93])
        exact = np.cos(2 * np.pi * x) - 0.3 * np.sin(4 * np.pi * x)
        assert np.max(np.abs(eval_field(f, x) - exact)) < 1e-12
