import numpy as np
import pytest

from detctl.fields import (
    NEUMANN,
    PERIODIC,
    Field,
    Grid1D,
    coeffs_of,
    constant_field,
    cosine_mode,
    eval_field,
    field_from_function,
    h1x_norm,
    l2_norm,
    random_band,
)
from detctl.interpolants import (
    DELTA,
    FOURIER,
    NODAL,
    VOLUME,
    InterpolantSpec,
    actuate_delta,
    cell_average_matrix,
    control_operator,
    defect,
    delta_cell_indices,
    interpolate,
    observe,
    pairing,
)

L = 1.0


def grid(M=256, L_=L, bc=NEUMANN):
    return Grid1D(L_, M, bc)


def vol(N, L_=L):
    return InterpolantSpec(VOLUME, N, L_)


def gamma_sq(f, spec):
    """Observation energy v . v of the closed-loop observations of f."""
    v = (control_operator(spec, f.grid).O @ coeffs_of(f)).real
    return float(v @ v)


class TestSpecValidation:
    def test_default_midpoints(self):
        s = InterpolantSpec(NODAL, 4, 1.0)
        assert s.obs_points == (0.125, 0.375, 0.625, 0.875)
        assert s.h == 0.25

    def test_point_outside_cell_rejected(self):
        with pytest.raises(ValueError, match="outside its cell"):
            InterpolantSpec(NODAL, 2, 1.0, obs_points=(0.6, 0.9))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            InterpolantSpec("wavelet", 2, 1.0)

    def test_rank_with_mean(self):
        assert InterpolantSpec(FOURIER, 5, 1.0).rank == 6
        assert InterpolantSpec(FOURIER, 5, 1.0, include_mean=False).rank == 5

    @pytest.mark.parametrize("kind", [VOLUME, NODAL, DELTA])
    @pytest.mark.parametrize("include_mean", [True, False])
    def test_include_mean_outside_fourier_rejected(self, kind, include_mean):
        with pytest.raises(ValueError, match=f"^include_mean: {kind} controllers read no such"):
            InterpolantSpec(kind, 2, 1.0, include_mean=include_mean)
        assert InterpolantSpec(kind, 2, 1.0).include_mean is None

    @pytest.mark.parametrize("kind,name", [(VOLUME, "obs_points"), (FOURIER, "obs_points"),
                                           (VOLUME, "act_points"), (NODAL, "act_points"),
                                           (FOURIER, "act_points")])
    def test_points_the_family_never_reads_rejected(self, kind, name):
        with pytest.raises(ValueError, match=f"^{name}: {kind} controllers read no such points"):
            InterpolantSpec(kind, 2, 1.0, **{name: (0.25, 0.75)})


class TestObserve:
    def test_constant_volume(self):
        obs = observe(constant_field(grid(), 2.5), vol(4))
        assert np.max(np.abs(obs - 2.5)) < 1e-12

    def test_linear_function_averages(self):
        # cell averages of x on [0, 1] with N=2 are the cell midpoints
        f = field_from_function(grid(M=1024), lambda x: x)
        obs = observe(f, vol(2))
        assert np.max(np.abs(obs - np.array([0.25, 0.75]))) < 1e-12

    def test_fourier_orthogonality(self):
        f = field_from_function(grid(), lambda x: np.cos(2 * np.pi * x / L))
        obs = observe(f, InterpolantSpec(FOURIER, 5, L))
        expected = np.zeros(6)
        expected[2] = 1.0
        assert np.max(np.abs(obs - expected)) < 1e-10

    def test_nodal_points(self):
        f = cosine_mode(grid(), 3)
        pts = (0.1, 0.3, 0.65, 0.8)
        obs = observe(f, InterpolantSpec(NODAL, 4, L, obs_points=pts))
        assert np.max(np.abs(obs - np.cos(3 * np.pi * np.array(pts)))) < 1e-12

    def test_rank_not_resolved(self):
        with pytest.raises(ValueError, match="M/4"):
            observe(constant_field(grid(M=16), 1.0), vol(8))


@pytest.mark.parametrize("kind,N", [(FOURIER, 70), (FOURIER, 17), (VOLUME, 32), (NODAL, 17),
                                    (DELTA, 17)])
def test_control_operator_rejects_an_unresolved_rank(kind, N):
    # the rule observe and defect apply: fourier N=70 would otherwise keep
    # only the grid's 64 modes of its 71 observations
    g = grid(M=64, bc=PERIODIC if kind == DELTA else NEUMANN)
    with pytest.raises(ValueError, match="exceeds M/4=16: not resolved"):
        control_operator(InterpolantSpec(kind, N, L), g)
    assert control_operator(InterpolantSpec(kind, 16, L), g).O.shape[0] == (
        17 if kind == FOURIER else 16)


def band(M=64, bc=NEUMANN):
    return random_band(grid(M=M, bc=bc), kmax=4, seed=5)


# every map that takes a grid applies check_grid's rules: a grid of another
# length, the other boundary condition, and a rank the grid does not resolve
# (fourier N=20, nodal N=32 on M=64) are each rejected
@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: control_operator(InterpolantSpec(NODAL, 4, L), grid(M=64, L_=2.0)),
                 "does not match spec length", id="operator-nodal-length"),
    pytest.param(lambda: control_operator(InterpolantSpec(FOURIER, 4, L), grid(M=64, L_=2.0)),
                 "does not match spec length", id="operator-fourier-length"),
    pytest.param(lambda: control_operator(InterpolantSpec(DELTA, 4, L),
                                          grid(M=64, L_=2.0, bc=PERIODIC)),
                 "does not match spec length", id="operator-delta-length"),
    pytest.param(lambda: observe(band(bc=PERIODIC), InterpolantSpec(NODAL, 4, L)),
                 "require a Neumann grid", id="observe-nodal-periodic"),
    pytest.param(lambda: observe(band(), InterpolantSpec(DELTA, 4, L)),
                 "require a periodic grid", id="observe-delta-neumann"),
    pytest.param(lambda: pairing(band(), InterpolantSpec(DELTA, 4, L)),
                 "require a periodic grid", id="pairing-delta-neumann"),
    pytest.param(lambda: pairing(band(), InterpolantSpec(FOURIER, 20, L)),
                 "exceeds M/4=16", id="pairing-fourier-rank"),
    pytest.param(lambda: interpolate(np.zeros(21), InterpolantSpec(FOURIER, 20, L), grid(M=64)),
                 "exceeds M/4=16", id="interpolate-fourier-rank"),
    pytest.param(lambda: interpolate(np.zeros(32), InterpolantSpec(NODAL, 32, L), grid(M=64)),
                 "exceeds M/4=16", id="interpolate-nodal-rank"),
])
def test_every_map_applies_the_grid_rules(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestInterpolate:
    def test_constant_volume_reproduced(self):
        g = grid(M=64)
        f = interpolate(np.full(4, 1.7), vol(4), g)
        assert np.max(np.abs(f.values - 1.7)) < 1e-14

    def test_fourier_reproduces_low_mode(self):
        g = grid(M=64)
        f = cosine_mode(g, 3)
        spec = InterpolantSpec(FOURIER, 5, L)
        rec = interpolate(observe(f, spec), spec, g)
        assert np.max(np.abs(rec.values - f.values)) < 1e-10
        assert defect(f, spec) < 1e-10

    def test_cell_average_of_cosine(self):
        # first-cell average of cos(pi x) with N=4 is 4 sin(pi/4) / pi;
        # sample-mean observation converges to it at second order in dx
        analytic = 4 * np.sin(np.pi / 4) / np.pi
        errs = []
        for M in (64, 256, 1024):
            g = grid(M=M)
            obs = observe(cosine_mode(g, 1), vol(4))
            errs.append(abs(obs[0] - analytic))
        assert errs[-1] < 4e-7
        assert errs[0] / errs[1] > 12 and errs[1] / errs[2] > 12
        g = grid(M=64)
        obs = observe(cosine_mode(g, 1), vol(4))
        pc = interpolate(obs, vol(4), g)
        assert np.max(np.abs(pc.values[:16] - obs[0])) < 1e-13

    def test_m_not_multiple_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            interpolate(np.zeros(5), vol(5), grid(M=64))

    def test_delta_has_no_interpolant(self):
        with pytest.raises(ValueError, match="delta"):
            interpolate(np.zeros(4), InterpolantSpec(DELTA, 4, L), grid())


class TestGeometryMatrices:
    @pytest.mark.parametrize("M, N", [(64, 4), (84, 7), (256, 8), (1024, 4)])
    def test_cell_average_matrix_matches_per_mode_loop(self, M, N):
        spec = InterpolantSpec(VOLUME, N, 2.0)
        edges = np.arange(N + 1) * spec.h
        want = np.ones((N, M))
        for m in range(1, M):
            s = np.sin(m * np.pi * edges / spec.L)
            want[:, m] = (spec.L / (m * np.pi * spec.h)) * (s[1:] - s[:-1])
        assert np.max(np.abs(cell_average_matrix(spec, M) - want)) <= 1e-13

    @pytest.mark.parametrize("M, N", [(64, 4), (84, 7), (256, 8), (1024, 4)])
    def test_cell_mean_matrix_is_the_sample_mean_of_the_basis(self, M, N):
        g = Grid1D(2.0, M)
        spec = InterpolantSpec(VOLUME, N, 2.0)
        basis = np.cos(np.outer(g.points(), np.arange(M)) * (np.pi / g.L))
        brute = basis.reshape(N, M // N, M).mean(axis=1)
        assert np.max(np.abs(control_operator(spec, g).O - brute)) <= 1e-12


class TestDefect:
    def test_constant_volume_zero(self):
        assert defect(constant_field(grid(), 3.0), vol(4)) < 1e-12

    def test_volume_cosine_frozen_value(self):
        # brute quadrature oracle (2^20 midpoints) gives 0.15868017590030895
        f = cosine_mode(grid(M=256), 1)
        d = defect(f, vol(4))
        assert abs(d - 0.15868017590030895) < 1e-8
        assert d <= vol(4).h * h1x_norm(f)

    def test_nodal_midpoint_frozen_value(self):
        # brute quadrature oracle gives 0.15970172696374604
        f = cosine_mode(grid(M=256), 1)
        d = defect(f, InterpolantSpec(NODAL, 4, L))
        assert abs(d - 0.15970172696374604) < 1e-9

    def test_matches_direct_norm_for_fourier(self):
        g = grid(M=64)
        f = random_band(g, kmax=8, seed=0)
        spec = InterpolantSpec(FOURIER, 3, L)
        rec = interpolate(observe(f, spec), spec, g)
        direct = l2_norm(Field(g, f.values - rec.values))
        assert abs(defect(f, spec) - direct) < 1e-12


class TestGammaSq:
    def test_zeros(self):
        assert gamma_sq(constant_field(grid(M=40), 0.0), vol(5)) == 0.0

    def test_constant(self):
        assert abs(gamma_sq(constant_field(grid(M=56), 2.0), vol(7)) - 28.0) < 1e-13

    def test_linear_example(self):
        f = field_from_function(grid(M=1024), lambda x: x)
        assert abs(gamma_sq(f, vol(2)) - 0.625) < 1e-12


class TestActuateDelta:
    def test_zero_observations(self):
        g = grid(M=64, bc=PERIODIC)
        out = actuate_delta(np.zeros(4), InterpolantSpec(DELTA, 4, L), g)
        assert np.all(out.values == 0.0)

    def test_unit_mass_scaling(self):
        g = grid(M=64, bc=PERIODIC)
        spec = InterpolantSpec(DELTA, 1, L)  # midpoint 0.5 sits on grid point 32
        out = actuate_delta(np.array([1.0]), spec, g)
        assert out.values[32] == 64.0
        assert np.count_nonzero(out.values) == 1
        assert abs(np.sum(out.values) * g.dx - 1.0) < 1e-14

    def test_pairing_against_point_values(self):
        g = grid(M=256, bc=PERIODIC)
        rng = np.random.default_rng(3)
        h = L / 8
        acts = tuple(k * h + rng.uniform(0.05, 0.95) * h for k in range(8))
        spec = InterpolantSpec(DELTA, 8, L, act_points=acts)
        phi = random_band(g, kmax=12, seed=4)
        obs = rng.uniform(-1, 1, 8)
        out = actuate_delta(obs, spec, g)
        discrete = np.sum(out.values * phi.values) * g.dx
        exact = h * np.sum(obs * eval_field(phi, np.asarray(acts)))
        assert abs(discrete - exact) <= 4.0 * g.dx * h1x_norm(phi) * np.sqrt(obs @ obs)

    def test_colliding_points_rejected(self):
        # x=0.115 (cell 1) and x=0.135 (cell 2) share the grid cell around 0.125
        coarse = Grid1D(L, 8, PERIODIC)
        colliding = InterpolantSpec(
            DELTA, 8, L, act_points=(0.115, 0.135, 0.3, 0.4, 0.55, 0.65, 0.8, 0.9)
        )
        with pytest.raises(ValueError, match="same grid cell"):
            delta_cell_indices(colliding, coarse)
        # default midpoints on a fine grid are fine
        spec = InterpolantSpec(DELTA, 8, L)
        assert len(delta_cell_indices(spec, grid(M=32, bc=PERIODIC))) == 8

    def test_requires_periodic(self):
        with pytest.raises(ValueError, match="periodic"):
            actuate_delta(np.zeros(4), InterpolantSpec(DELTA, 4, L), grid(M=64))


# ---------------------------------------------------------------------------
# inequality property suites (seeded trial ensembles)

TRIAL_NS = (1, 2, 4, 8, 16)


def trial_field(g, seed, kmax=20):
    return random_band(g, kmax=kmax, seed=seed)


def in_cell_points(rng, N, L_):
    h = L_ / N
    return tuple(k * h + rng.uniform(0.0, 1.0) * h for k in range(N))


class TestInequalities:
    def test_volume_bound_200_trials(self):
        g = grid(M=256)
        worst = 0.0
        for t in range(200):
            f = trial_field(g, seed=1000 + t)
            spec = vol(TRIAL_NS[t % len(TRIAL_NS)])
            bound = spec.h * h1x_norm(f)
            if bound == 0.0:
                continue
            worst = max(worst, defect(f, spec) / bound)
        assert worst <= 1.0 + 1e-12

    def test_nodal_bound_arbitrary_points(self):
        g = grid(M=256)
        rng = np.random.default_rng(99)
        worst = 0.0
        for t in range(200):
            f = trial_field(g, seed=2000 + t)
            N = TRIAL_NS[t % len(TRIAL_NS)]
            spec = InterpolantSpec(NODAL, N, L, obs_points=in_cell_points(rng, N, L))
            bound = spec.h * h1x_norm(f)
            if bound == 0.0:
                continue
            worst = max(worst, defect(f, spec) / bound)
        assert worst <= 1.0 + 1e-12

    def test_fourier_bound_with_mean(self):
        g = grid(M=256)
        worst = 0.0
        for t in range(200):
            f = trial_field(g, seed=3000 + t)
            spec = InterpolantSpec(FOURIER, TRIAL_NS[t % len(TRIAL_NS)], L)
            bound = (spec.h / np.pi) * h1x_norm(f)
            if bound == 0.0:
                continue
            worst = max(worst, defect(f, spec) / bound)
        assert worst <= 1.0 + 1e-12

    def test_point_difference_bound(self):
        # sum_k |phi(x_k) - phi(xbar_k)|^2 <= h ||phi_x||^2
        g = grid(M=256)
        rng = np.random.default_rng(7)
        for t in range(200):
            f = trial_field(g, seed=4000 + t)
            N = TRIAL_NS[t % len(TRIAL_NS)]
            h = L / N
            a = np.array(in_cell_points(rng, N, L))
            b = np.array(in_cell_points(rng, N, L))
            lhs = np.sum((eval_field(f, a) - eval_field(f, b)) ** 2)
            assert lhs <= h * h1x_norm(f) ** 2 + 1e-12

    def test_sampled_norm_lower_bound(self):
        # ||phi||^2 <= 2 [ h sum |phi(x_k)|^2 + h^2 ||phi_x||^2 ]
        g = grid(M=256)
        rng = np.random.default_rng(8)
        for t in range(200):
            f = trial_field(g, seed=5000 + t)
            N = TRIAL_NS[t % len(TRIAL_NS)]
            h = L / N
            pts = np.array(in_cell_points(rng, N, L))
            rhs = 2.0 * (h * np.sum(eval_field(f, pts) ** 2) + h ** 2 * h1x_norm(f) ** 2)
            assert l2_norm(f) ** 2 <= rhs + 1e-12

    def test_projection_idempotence(self):
        g = grid(M=256)
        for t in range(20):
            f = trial_field(g, seed=6000 + t)
            for spec in (vol(8), InterpolantSpec(FOURIER, 8, L)):
                once = interpolate(observe(f, spec), spec, g)
                twice = interpolate(observe(once, spec), spec, g)
                scale = max(np.max(np.abs(once.values)), 1e-30)
                assert np.max(np.abs(twice.values - once.values)) < 1e-12 * scale

    def test_observation_energy_norm_bound(self):
        # ||phi||^2 <= h gamma^2 + (h/pi)^2 ||phi_x||^2 with exact cell
        # averages (sharp per-cell constant; equality is approached by the
        # cell-scale cosine mode)
        g = grid(M=256)
        for t in range(200):
            f = trial_field(g, seed=7000 + t)
            N = TRIAL_NS[t % len(TRIAL_NS)]
            spec = vol(N)
            avg = cell_average_matrix(spec, g.M) @ coeffs_of(f)
            rhs = spec.h * np.sum(avg ** 2) + (spec.h / np.pi) ** 2 * h1x_norm(f) ** 2
            assert l2_norm(f) ** 2 <= rhs * (1 + 1e-12) + 1e-12

    def test_observation_energy_bound_sharpness(self):
        # the cell-scale mode cos(N pi x / L) has zero averages and saturates
        # the (h/pi)^2 constant, ruling out any smaller one
        g = grid(M=256)
        N = 8
        f = cosine_mode(g, N)
        spec = vol(N)
        assert gamma_sq(f, spec) < 1e-20
        lhs = l2_norm(f) ** 2
        rhs = (spec.h / np.pi) ** 2 * h1x_norm(f) ** 2
        assert abs(lhs - rhs) < 1e-10 * lhs


class TestInterpolantNorm:
    def test_volume_norm(self):
        v = np.array([1.0, -2.0])
        q = control_operator(vol(2), grid(M=64)).q
        assert abs(np.sqrt(q @ v ** 2) - np.sqrt(0.5 * 5.0)) < 1e-13

    def test_fourier_pairing_is_projection_norm(self):
        g = grid(M=128)
        f = random_band(g, kmax=10, seed=12)
        spec = InterpolantSpec(FOURIER, 4, L)
        obs = observe(f, spec)
        assert abs(pairing(f, spec) - l2_norm(interpolate(obs, spec, g)) ** 2) < 1e-12

    def test_volume_pairing_matches_dense_quadrature(self):
        g = grid(M=128)
        f = random_band(g, kmax=10, seed=12)
        spec = vol(4)
        v = observe(f, spec)
        P = 1 << 16
        xf = (np.arange(P) + 0.5) * L / P
        pc = v[np.minimum((xf / spec.h).astype(int), spec.N - 1)]
        quad = np.sum(pc * eval_field(f, xf)) * L / P
        assert abs(pairing(f, spec) - quad) < 1e-8

    def test_nodal_pairing_matches_dense_quadrature(self):
        g = grid(M=128)
        f = random_band(g, kmax=10, seed=13)
        spec = InterpolantSpec(NODAL, 4, L)
        v = observe(f, spec)
        # independent dense-quadrature oracle of <I_h f, f>
        P = 1 << 16
        xf = (np.arange(P) + 0.5) * L / P
        pc = v[np.minimum((xf / spec.h).astype(int), spec.N - 1)]
        quad = np.sum(pc * eval_field(f, xf)) * L / P
        assert abs(pairing(f, spec) - quad) < 1e-8
