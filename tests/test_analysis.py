import numpy as np
import pytest

from detctl.analysis import (
    STABILIZED_RATIO,
    NoFitError,
    absorbing_bounds,
    absorbing_entry_time,
    check_conditions,
    fit_decay_rate,
    linear_growth_rate,
    minimal_rank,
    rank_scan,
    reference_rank,
    sweep_cell_config,
    sweep_grid,
    terminal_ratio,
    unstable_mode_count,
    verify_decay_bound,
)
from detctl import dynamics
from detctl.dynamics import ClosedLoopParams, TrajectoryRecord, integrate, simulate
from detctl.interpolants import FOURIER, InterpolantSpec


def make_traj(times, l2):
    times = np.asarray(times, dtype=float)
    l2 = np.asarray(l2, dtype=float)
    z = np.zeros_like(times)
    return TrajectoryRecord(times=times, l2=l2, h1x=z, h1=z, l4p4=z,
                            gamma2=z, ih_l2=z, energy_residual=z, pairing=z)


def params(nu=1.0, alpha=4.0, L=np.pi, mu=0.0, spec=None):
    return ClosedLoopParams(nu=nu, alpha=alpha, L=L, mu=mu, spec=spec)


class TestGrowthRates:
    def test_mean_mode(self):
        assert linear_growth_rate(0, params(alpha=4.0)) == -4.0

    def test_marginal(self):
        assert abs(linear_growth_rate(2, params())) < 1e-12

    def test_stable(self):
        assert linear_growth_rate(3, params()) == pytest.approx(5.0)

    def test_count_examples(self):
        assert unstable_mode_count(params()) == 2
        assert unstable_mode_count(params(alpha=1e-9)) == 1
        assert unstable_mode_count(params(alpha=100.0)) == 10

    @pytest.mark.parametrize("seed", range(20))
    def test_count_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        p = params(nu=rng.uniform(0.05, 3.0), alpha=rng.uniform(0.01, 400.0),
                   L=rng.uniform(0.3, 8.0))
        brute = sum(1 for k in range(1001) if linear_growth_rate(k, p) < 0)
        assert unstable_mode_count(p) == brute
        # the reference rank is the count's continuous boundary
        assert brute == np.ceil(reference_rank(p.nu, p.alpha, p.L))


class TestFit:
    def test_exact_exponential(self):
        t = np.linspace(0, 5, 200)
        traj = make_traj(t, np.exp(-1.0 * t))  # ||u||^2 = e^{-2t}
        fit = fit_decay_rate(traj, 0.0)
        assert abs(fit.rate - 2.0) < 1e-10
        assert fit.residual < 1e-12

    def test_scaled_exponential(self):
        t = np.linspace(0, 20, 400)
        traj = make_traj(t, np.sqrt(5.0) * np.exp(-0.25 * t))  # 5 e^{-0.5 t}
        fit = fit_decay_rate(traj, 1.0)
        assert abs(fit.rate - 0.5) < 1e-10
        assert fit.window[0] >= 1.0

    def test_window_too_short(self):
        traj = make_traj([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
        with pytest.raises(NoFitError):
            fit_decay_rate(traj, 0.0)

    def test_underflow_floor_truncates(self):
        t = np.linspace(0, 800, 2000)
        l2sq = np.exp(-t)  # crosses 1e-280 around t = 644
        traj = make_traj(t, np.sqrt(l2sq))
        fit = fit_decay_rate(traj, 0.0)
        assert fit.window[1] < 650.0
        assert abs(fit.rate - 1.0) < 1e-8


class TestBound:
    def test_zero_trajectory(self):
        traj = make_traj(np.linspace(0, 1, 20), np.zeros(20))
        assert verify_decay_bound(traj, 100.0, 0.0)

    def test_violated(self):
        t = np.linspace(0, 5, 100)
        traj = make_traj(t, np.exp(-1.0 * t))  # squared rate 2
        assert not verify_decay_bound(traj, 3.0, 0.05)

    def test_satisfied_with_slack(self):
        t = np.linspace(0, 5, 100)
        traj = make_traj(t, np.exp(-1.0 * t))
        assert verify_decay_bound(traj, 2.0, 0.05)
        assert verify_decay_bound(traj, 1.5, 0.0)


class TestAbsorbing:
    def test_unit_example(self):
        p = params(nu=1.0, alpha=1.0, L=1.0)
        r0_sq, _ = absorbing_bounds(p)
        assert r0_sq == pytest.approx(4.0)

    def test_grows_linearly_in_nu(self):
        vals = []
        for nu in (100.0, 200.0, 400.0):
            r0_sq, _ = absorbing_bounds(params(nu=nu, alpha=1.0, L=1.0))
            vals.append(r0_sq / nu)
        assert abs(vals[2] / vals[1] - 1.0) < 0.03
        assert abs(vals[1] / vals[0] - 1.0) < 0.03

    def test_open_loop_r1_formula(self):
        p = params(nu=2.0, alpha=3.0, L=1.5)
        r0_sq, r1_sq = absorbing_bounds(p)
        a = p.alpha + p.nu / p.L ** 2
        expected = (1.0 / p.nu) * (a * p.L + r0_sq) * (1.0 + 2.0 * p.alpha)
        assert r1_sq == pytest.approx(expected)

    def test_gain_term_uses_certified_constant(self):
        spec = InterpolantSpec(FOURIER, 2, 1.0)
        p = params(nu=1.0, alpha=4.0, L=1.0, mu=10.0, spec=spec)
        r0_sq, r1_sq = absorbing_bounds(p)
        gain = 100.0 * (1 / np.pi ** 2) * 0.25 / 2.0
        expected = ((4.0 + 1.0) * 1.0 + r0_sq) * (1.0 + 2.0 * (4.0 + gain))
        assert r1_sq == pytest.approx(expected)

    def test_condition_report_and_bounds_share_r0(self):
        p = params(nu=0.7, alpha=3.0, L=1.3, mu=10.0, spec=InterpolantSpec(FOURIER, 2, 1.3))
        assert check_conditions(p).thm41.details["R0_sq"] == absorbing_bounds(p)[0]

    def test_entry_time(self):
        p = params(nu=1.0, alpha=4.0, L=1.0)
        r0_sq, _ = absorbing_bounds(p)
        t = absorbing_entry_time(p, 4.0 * r0_sq)
        assert t == pytest.approx(np.log(3.0 / 0.05))
        assert absorbing_entry_time(p, 0.5 * r0_sq) == 0.0


class TestMinimalN:
    def test_first_rank_at_or_below_the_threshold(self):
        assert minimal_rank({1: 1.0, 2: STABILIZED_RATIO, 3: 0.0}) == 2
        assert minimal_rank({3: 0.0, 1: 0.0}) == 3
        assert minimal_rank({1: 2.0 * STABILIZED_RATIO, 2: float("inf")}) is None

    def test_low_alpha_returns_min(self):
        # alpha below nu (pi/L)^2: every mode except the mean is already
        # stable, one controller suffices
        scan = rank_scan(1.0, [4.0], 1.0, [20.0], range(1, 9))
        assert [c["N"] for c in scan["cells"]] == list(range(1, 9))
        assert scan["minimal_N"] == {"4": 1}

    def test_zero_gain_never_stabilizes(self):
        scan = rank_scan(1.0, [16.0], 1.0, [0.0], range(1, 4))
        assert [c["N"] for c in scan["cells"]] == [1, 2, 3]
        assert all(c["terminal_ratio"] > 1e-4 and not c["stabilized"] for c in scan["cells"])
        assert scan["minimal_N"] == {"16": None}

    def test_moderate_alpha_needs_two(self):
        scan = rank_scan(1.0, [16.0], 1.0, [80.0], range(1, 9))
        assert scan["minimal_N"] == {"16": 2}
        assert [c["stabilized"] for c in scan["cells"]] == [False] + [True] * 7

    def test_alphas_that_share_a_summary_key_are_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            rank_scan(1.0, [4.0000001, 4.0000002], 1.0, [20.0, 20.0], [1])

    def test_sweep_steps_its_cells_in_groups(self, monkeypatch):
        # the preset's 24 cells: Neumann members of any M and any step count
        # share a group, so one Stepper steps all 24 on the largest grid,
        # M = 84, with one stack of the 8 volume controllers, R = 1 + ... + 8
        # = 36 <= 84 rows.  At IC seed 0 every cell takes 1,800 steps; at
        # seed 7 the initial state's max|u| sets the step count of some
        # alpha = 4 cells (1,800 x 16, 1,908 x 6 and 1,909 x 2)
        made = []
        init = dynamics.Stepper.__init__

        def counted(self, grid, p, dt, scheme="etd1"):
            init(self, grid, p, dt, scheme)
            made.append((self.grid.M, len(self.params), self.O.shape[0]))

        monkeypatch.setattr(dynamics.Stepper, "__init__", counted)
        alphas = [4.0, 16.0, 64.0]
        for ic_seed, want in ((0, [1800] * 24), (7, [1800] * 16 + [1908] * 6 + [1909] * 2)):
            made.clear()
            scan = rank_scan(1.0, alphas, 1.0, [5.0 * a for a in alphas], range(1, 9),
                             ic_seed=ic_seed)
            steps = sorted(sweep_cell_config(1.0, alpha, 1.0, 5.0 * alpha, N,
                                             ic_seed=ic_seed)[0].n_steps
                           for alpha in alphas for N in range(1, 9))
            assert steps == want
            assert [(c["alpha"], c["N"]) for c in scan["cells"]] == [
                (alpha, N) for alpha in alphas for N in range(1, 9)]
            assert made == [(84, 24, 36)]

    def test_sweep_group_stacks_each_distinct_controller_once(self):
        # the preset's M=64 group, 3 alphas x N in {1, 2, 4, 8}, shares four
        # volume controllers: R = 1 + 2 + 4 + 8 rows, each member's gain on
        # its own N rows
        alphas = [4.0, 16.0, 64.0]
        cells = [sweep_cell_config(1.0, alpha, 1.0, 5.0 * alpha, N)
                 for alpha in alphas for N in (1, 2, 4, 8)]
        assert {cfg.grid.M for cfg, _ in cells} == {64}
        st = dynamics.Stepper(cells[0][0].grid, [p for _, p in cells],
                              [cfg.dt for cfg, _ in cells])
        assert st.O.shape == (15, 64) and st.A.shape == (64, 15) and st.q.shape == (15,)
        assert [np.count_nonzero(row) for row in st.G] == [1, 2, 4, 8] * 3
        assert np.array_equal(st.G.max(axis=1), [p.mu for _, p in cells])

    @pytest.mark.parametrize("kind", ["volume", "nodal", "fourier"])
    def test_rank_scan_matches_each_cell_run_alone(self, kind):
        alphas = [4.0, 16.0, 64.0]
        mus = [5.0 * alpha for alpha in alphas]
        scan = rank_scan(1.0, alphas, 1.0, mus, range(1, 5), kind=kind)
        assert [(c["alpha"], c["N"], c["mu"]) for c in scan["cells"]] == [
            (alpha, N, mu) for alpha, mu in zip(alphas, mus) for N in range(1, 5)]
        for c in scan["cells"]:
            alpha, N, got = c["alpha"], c["N"], c["terminal_ratio"]
            want = terminal_ratio(*sweep_cell_config(1.0, alpha, 1.0, c["mu"], N, kind=kind))
            assert got == want or abs(got - want) <= 1e-12 * want, (alpha, N)

    def test_integrate_keeps_one_outcome_per_member(self):
        cell = sweep_cell_config(1.0, 16.0, 1.0, 80.0, 2)
        other = sweep_cell_config(1.0, 16.0, 1.0, 80.0, 4)
        outcomes = integrate([cell, other, cell])
        assert list(outcomes) == [cell, other]
        # the pair steps on the factored body and the cell alone on the
        # stacked one, whose sums round differently: equal to the last bits
        got, want = outcomes[cell].l2, simulate(*cell).l2
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_sweep_grid_alignment(self):
        g = sweep_grid(3, 2)
        assert g.M % 12 == 0 and g.M >= 64
