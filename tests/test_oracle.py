import numpy as np
import pytest

from detctl.analysis import certified_c
from detctl.dynamics import ClosedLoopParams, ICSpec, SimConfig, simulate
from detctl.fields import NEUMANN, Field, Grid1D, h1x_norm, l2_norm, random_band, samples_of
from detctl.interpolants import DELTA, FOURIER, NODAL, VOLUME, InterpolantSpec, defect
from detctl.oracle import (
    _defect_form,
    analytic_linear_mode,
    bh_constant,
    logistic_constant_state,
)


def params(nu=1.0, alpha=4.0, L=np.pi):
    return ClosedLoopParams(nu=nu, alpha=alpha, L=L)


class TestAnalyticLinearMode:
    def test_initial_time(self):
        g = Grid1D(np.pi, 64)
        f = analytic_linear_mode(2, 0.3, 0.0, params(), g)
        assert np.max(np.abs(f.values - 0.3 * np.cos(2 * g.points()))) < 1e-14

    def test_marginal_mode_constant_amplitude(self):
        # nu (pi k / L)^2 = alpha for k=2, L=pi, nu=1, alpha=4
        g = Grid1D(np.pi, 64)
        f0 = analytic_linear_mode(2, 1.0, 0.0, params(), g)
        f1 = analytic_linear_mode(2, 1.0, 5.0, params(), g)
        assert np.max(np.abs(f1.values - f0.values)) < 1e-12

    def test_growth_exponent(self):
        # k=1: exponent alpha - nu (pi/L)^2 = 3, amplitude e^3 at t=1
        g = Grid1D(np.pi, 64)
        f0 = analytic_linear_mode(1, 1.0, 0.0, params(), g)
        f1 = analytic_linear_mode(1, 1.0, 1.0, params(), g)
        assert abs(l2_norm(f1) / l2_norm(f0) - np.exp(3.0)) < 1e-10


class TestLogistic:
    def test_fixed_point(self):
        p = params(alpha=2.0)
        for t in (0.0, 0.5, 10.0):
            assert abs(logistic_constant_state(np.sqrt(2.0), t, p) - np.sqrt(2.0)) < 1e-12

    def test_zero(self):
        assert logistic_constant_state(0.0, 3.0, params()) == 0.0

    def test_limit(self):
        p = params(alpha=1.0)
        assert abs(logistic_constant_state(0.1, 50.0, p) - 1.0) < 1e-12

    def test_no_overflow_large_time(self):
        assert np.isfinite(logistic_constant_state(0.1, 1e6, params(alpha=100.0)))

    def test_odd_in_initial_value(self):
        p = params(alpha=1.0)
        assert logistic_constant_state(-0.1, 2.0, p) == -logistic_constant_state(0.1, 2.0, p)


def nodal_at(fraction, N=8, L=1.0):
    """Nodal family observing at the same fraction of every cell."""
    return InterpolantSpec(NODAL, N, L, obs_points=tuple((k + fraction) * L / N for k in range(N)))


class TestEmpiricalConstant:
    def test_volume_below_one(self):
        assert 0.0 < bh_constant(InterpolantSpec(VOLUME, 8, 1.0), 20) <= 1.0

    def test_nodal_below_one(self):
        assert 0.0 < bh_constant(InterpolantSpec(NODAL, 8, 1.0), 20) <= 1.0

    def test_fourier_with_mean_below_inv_pi(self):
        assert bh_constant(InterpolantSpec(FOURIER, 4, 1.0), 20) <= 1.0 / np.pi

    def test_volume_ascent_approaches_sharp_third(self):
        # below the cell-scale mode the band constant sits under the sharp
        # 1/pi (within 25% of it); from kmax = N on, cos(N pi x / L) attains it
        spec = InterpolantSpec(VOLUME, 8, 1.0)
        values = [bh_constant(spec, kmax) for kmax in range(1, 13)]
        assert all(b >= a * (1.0 - 1e-12) for a, b in zip(values, values[1:])), values
        for kmax, c in zip(range(1, 13), values):
            if kmax < spec.N:
                assert 0.75 / np.pi < c < 0.95 / np.pi, (kmax, c)
            else:
                assert abs(c - 1.0 / np.pi) <= 1e-12, (kmax, c)

    def test_draws_are_pinned(self):
        # the exact band values: the cell-scale mode cos(N pi x / L) attains
        # volume's and midpoint nodal's 1/pi, mode N + 1 attains fourier's
        # N / ((N + 1) pi)
        cases = (
            (InterpolantSpec(VOLUME, 8, 1.0), 1.0 / np.pi),
            (InterpolantSpec(NODAL, 8, 1.0), 1.0 / np.pi),
            (InterpolantSpec(FOURIER, 4, 1.0), 4.0 / (5.0 * np.pi)),
        )
        for spec, exact in cases:
            for kmax in (20, 80, 320):
                c = bh_constant(spec, kmax)
                assert abs(c - exact) <= 1e-12, (spec.kind, kmax, c)

    def test_defect_vanishes_on_constants(self):
        rng = np.random.default_rng(0)
        specs = [InterpolantSpec(VOLUME, 8, 1.0), InterpolantSpec(VOLUME, 5, 2.5),
                 nodal_at(0.0), nodal_at(1.0)]
        for _ in range(5):
            pts = (np.arange(6) + rng.uniform(size=6)) / 3.0
            specs.append(InterpolantSpec(NODAL, 6, 2.0, obs_points=tuple(pts)))
        for spec in specs:
            D = _defect_form(spec, 41)
            assert np.max(np.abs(D[0])) <= 1e-14 * np.max(np.abs(D)), spec

    def test_kmax_zero_rejected(self):
        # no mode with a derivative
        with pytest.raises(ValueError, match="kmax"):
            bh_constant(InterpolantSpec(VOLUME, 4, 1.0), 0)

    def test_delta_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            bh_constant(InterpolantSpec(DELTA, 4, 1.0), 8)

    def test_fourier_without_mean_rejected(self):
        with pytest.raises(ValueError, match="no finite constant"):
            bh_constant(InterpolantSpec(FOURIER, 4, 1.0, include_mean=False), 8)

    @pytest.mark.parametrize("spec", [
        InterpolantSpec(VOLUME, 8, 1.0), InterpolantSpec(FOURIER, 4, 1.0),
        InterpolantSpec(NODAL, 8, 1.0), nodal_at(0.0), nodal_at(0.25), nodal_at(1.0),
    ], ids=["volume", "fourier", "nodal-mid", "nodal-0", "nodal-0.25", "nodal-1"])
    def test_fields_never_exceed_and_the_top_mode_attains(self, spec):
        # an independent route: the field-level defect on grid samples
        g, kmax = Grid1D(1.0, 256, NEUMANN), 20
        c = bh_constant(spec, kmax)

        def ratio(f):
            return defect(f, spec) / (spec.h * h1x_norm(f))

        worst = max(ratio(random_band(g, kmax=kmax, seed=s)) for s in range(200))
        assert worst <= c * (1.0 + 1e-12), (worst, c)
        s = 1.0 / (np.sqrt(0.5) * np.arange(1, kmax + 1) * np.pi)
        _, vecs = np.linalg.eigh(s[:, None] * _defect_form(spec, kmax + 1)[1:, 1:] * s)
        coeffs = np.zeros(g.M)
        coeffs[1:kmax + 1] = s * vecs[:, -1]
        assert abs(ratio(Field(g, samples_of(g, coeffs))) - c) <= 1e-9 * c
        if spec.kind == NODAL:
            assert c <= certified_c(spec)


class TestSolverAgainstOracles:
    def test_open_loop_constant_ic_matches_logistic(self):
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0)
        cfg = SimConfig(grid=Grid1D(1.0, 8), dt=1e-4, T=10.0,
                        ic=ICSpec("constant", value=0.1), record_every=1000,
                        scheme="etdrk2")
        traj = simulate(cfg, p)
        for t, l2 in zip(traj.times, traj.l2):
            exact = abs(logistic_constant_state(0.1, t, p)) * np.sqrt(p.L)
            assert abs(l2 - exact) <= 1e-6 * max(exact, 1e-12)

    def test_linear_regime_matches_analytic_mode(self):
        g = Grid1D(np.pi, 32)
        p = params()
        k, amp = 1, 1e-6
        cfg = SimConfig(grid=g, dt=1e-4, T=1.0,
                        ic=ICSpec("single-mode", k=k, amplitude=amp),
                        record_every=500, scheme="etdrk2")
        traj = simulate(cfg, p)
        for t, l2 in zip(traj.times, traj.l2):
            ref = l2_norm(analytic_linear_mode(k, amp, t, p, g))
            assert abs(l2 - ref) <= 1e-4 * ref
