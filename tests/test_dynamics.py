from dataclasses import replace

import numpy as np
import pytest

from detctl.fields import (
    NEUMANN,
    PERIODIC,
    Grid1D,
    coeffs_of,
    constant_field,
    cosine_mode,
    l2_norm,
    l2_sq_of_coeffs,
    samples_of,
)
from detctl import dynamics
from detctl.dynamics import (
    RECORD_CHUNK,
    SERIES,
    BlowupError,
    ClosedLoopParams,
    ICSpec,
    SimConfig,
    Stepper,
    integrate,
    next_fast_len,
    simulate,
    stability_limit,
)
from detctl.analysis import check_conditions
from detctl.interpolants import DELTA, FOURIER, VOLUME, InterpolantSpec, control_operator


def neumann(M=64, L=1.0):
    return Grid1D(L, M, NEUMANN)


def open_loop(nu=1.0, alpha=4.0, L=1.0):
    return ClosedLoopParams(nu=nu, alpha=alpha, L=L)


def rhs(u, p):
    """Samples of nu u_xx + alpha u - u^3 - mu I_h(u) from the stepper's cube and
    control operator."""
    c = coeffs_of(u)
    st = Stepper(u.grid, p, dt=1.0)
    cubed, _ = st.cube(c)
    n = p.alpha * c - cubed
    if not p.open_loop:
        ctl = control_operator(p.spec, u.grid)
        n = n - p.mu * ctl.A @ (ctl.O @ c).real
    return samples_of(u.grid, -p.nu * u.grid.wavenumbers ** 2 * c + n)


def step(u, p, dt):
    """Samples after one exponential-Euler step of the stepper."""
    st, c = Stepper(u.grid, p, dt), coeffs_of(u)
    c, _ = st.advance(c, st.samples(c))
    return samples_of(u.grid, c)


class TestParams:
    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError, match="gain"):
            ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=-1.0)

    def test_gain_needs_a_controller(self):
        # a gain with nothing to act through would run open loop unannounced
        with pytest.raises(ValueError, match="mu=10.0 needs a controller"):
            ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=10.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError, match="diffusion"):
            ClosedLoopParams(nu=0.0, alpha=1.0, L=1.0)

    def test_spec_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ClosedLoopParams(nu=1.0, alpha=1.0, L=2.0, mu=1.0,
                             spec=InterpolantSpec(VOLUME, 2, 1.0))

    def test_periodic_single_mode_above_half_the_grid_is_aliased(self):
        # on M=16, k=12 and k=20 sample as k=4; k=8 is the Nyquist mode (-1)^j
        g = Grid1D(1.0, 16, PERIODIC)
        for k in (9, 12, 20):
            with pytest.raises(ValueError, match=f"k={k} exceeds M/2=8: aliased"):
                ICSpec("single-mode", k=k, amplitude=1.0).realize(g)
        nyquist = ICSpec("single-mode", k=8, amplitude=1.0).realize(g)
        assert np.max(np.abs(nyquist.values - (-1.0) ** np.arange(16))) < 1e-14

    def test_open_loop_flag(self):
        assert open_loop().open_loop
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=0.0,
                             spec=InterpolantSpec(VOLUME, 2, 1.0))
        assert p.open_loop


class TestRhs:
    def test_zero_is_steady(self):
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0,
                             spec=InterpolantSpec(FOURIER, 2, 1.0))
        out = rhs(constant_field(neumann(), 0.0), p)
        assert np.max(np.abs(out)) < 1e-14

    def test_linearization(self):
        # tiny single mode: rhs ~ (alpha - nu (k pi / L)^2) u, cubic negligible
        g = neumann()
        p = open_loop(nu=1.0, alpha=4.0, L=1.0)
        for k in (0, 1, 3):
            u = cosine_mode(g, k, amplitude=1e-8)
            out = rhs(u, p)
            lam = p.alpha - p.nu * (k * np.pi / p.L) ** 2
            assert np.max(np.abs(out - lam * u.values)) < 1e-12

    def test_nonzero_steady_state(self):
        # u = sqrt(alpha) balances alpha u = u^3 in the open loop
        p = open_loop(alpha=3.0)
        u = constant_field(neumann(), np.sqrt(3.0))
        assert np.max(np.abs(rhs(u, p))) < 1e-12

    def test_bc_kind_mismatch(self):
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=1.0,
                             spec=InterpolantSpec(DELTA, 2, 1.0))
        with pytest.raises(ValueError, match="periodic"):
            Stepper(neumann(), p, dt=1e-3)
        p2 = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=1.0,
                              spec=InterpolantSpec(VOLUME, 2, 1.0))
        with pytest.raises(ValueError, match="Neumann"):
            Stepper(Grid1D(1.0, 64, PERIODIC), p2, dt=1e-3)


class TestStep:
    def test_zero_fixed(self):
        u = constant_field(neumann(), 0.0)
        out = step(u, open_loop(), 1e-3)
        assert np.max(np.abs(out)) < 1e-14

    def test_pure_heat_modal_factor(self):
        # alpha must be > 0 by contract; use a tiny alpha and remove its
        # explicit contribution to isolate the exact diffusion factor
        g = neumann(M=32, L=np.pi)
        nu, k = 0.7, 3
        p = ClosedLoopParams(nu=nu, alpha=1e-14, L=np.pi)
        u = cosine_mode(g, k, amplitude=1e-6)
        dt = 1e-3
        out = step(u, p, dt)
        factor = np.exp(-nu * (k * np.pi / p.L) ** 2 * dt)
        ref = u.values * factor
        assert np.max(np.abs(out - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_linear_growth_rate_100_steps(self):
        # amplitude ratio matches exp((alpha - nu (k pi/L)^2) * t) to 1e-4
        g = neumann(M=32, L=np.pi)
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=np.pi)
        k, dt, n = 1, 1e-4, 100
        u = cosine_mode(g, k, amplitude=1e-6)
        st = Stepper(g, p, dt)
        c = coeffs_of(u)
        s = st.samples(c)
        for _ in range(n):
            c, s = st.advance(c, s)
        lam = p.alpha - p.nu * (k * np.pi / p.L) ** 2
        ratio = np.sqrt(l2_sq_of_coeffs(g, c)) / l2_norm(u)
        assert abs(ratio - np.exp(lam * n * dt)) < 1e-4 * np.exp(lam * n * dt)

    def test_stability_limit_enforced(self):
        p = ClosedLoopParams(nu=1.0, alpha=100.0, L=1.0)
        u = constant_field(neumann(), 5.0)
        assert stability_limit(p.alpha, p.mu, 5.0) == 0.5 / (100.0 + 75.0)
        with pytest.raises(BlowupError, match="stability"):
            step(u, p, 0.02)

    @pytest.mark.parametrize("past", (False, True))
    @pytest.mark.parametrize("batch", (False, True))
    def test_guard_threshold_is_each_members_stability_limit(self, batch, past):
        # a constant state samples exactly on the padded grid, so max|u| = a.
        # Member 0 sits just inside or just past its limit; in the batch,
        # member 1 has the larger |u| but, at its smaller dt, the larger cap
        # on max u^2, so the batch's largest sample exceeds the smallest cap
        g = neumann(M=32)
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=3.0,
                             spec=InterpolantSpec(FOURIER, 2, 1.0))
        amps = [2.0, 3.0][: 1 + batch]
        dts = [stability_limit(p.alpha, p.mu, amps[0]) * (1 + (1e-9 if past else -1e-9)),
               1e-3][: len(amps)]
        x = np.zeros((len(amps), g.M))
        x[:, 0] = amps
        st = Stepper(g, [p] * len(amps), dts)
        assert (max(amps) ** 2 > st._cap_min) == (batch or past)
        if past:
            with pytest.raises(BlowupError, match="stability") as exc:
                st.advance(x, st.samples(x))
            assert list(exc.value.failed) == [0]
            return
        y, _ = st.advance(x, st.samples(x))
        for row, dt in enumerate(dts):
            one = Stepper(g, p, dt)
            alone, _ = one.advance(x[row], one.samples(x[row]))
            assert np.max(np.abs(y[row] - alone)) <= 1e-14 * np.max(np.abs(alone))

    def test_nan_state_rejected(self):
        # a NaN state gives a NaN limit, which no comparison with dt may let
        # through; M=256 takes the FFT transforms above the dense crossover
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0)
        for M in (32, 256):
            c = np.zeros(M)
            c[3] = np.nan
            st = Stepper(neumann(M=M), p, 1e-3)
            with pytest.raises(BlowupError, match="stability"):
                st.advance(c, st.samples(c))

    def test_convergence_order(self):
        # closed-loop smooth run: halving dt reduces the terminal error
        # against a dt/8 reference at the scheme's order
        g = neumann(M=32)
        spec = InterpolantSpec(FOURIER, 2, 1.0)
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0, spec=spec)
        ic = ICSpec(RANDOM := "random-band", seed=3, kmax=3, amplitude=1.0)
        T = 0.25

        def terminal(dt, scheme):
            cfg = SimConfig(grid=g, dt=dt, T=T, ic=ic, record_every=10 ** 9, scheme=scheme)
            return simulate(cfg, p).l2[-1]

        for scheme, order_floor in (("etd1", 0.9), ("etdrk2", 1.8)):
            ref = terminal(T / 2048, scheme)
            e1 = abs(terminal(T / 128, scheme) - ref)
            e2 = abs(terminal(T / 256, scheme) - ref)
            order = np.log2(e1 / e2)
            assert order > order_floor, (scheme, order)


class TestSimulate:
    def test_zero_ic_all_zero(self):
        cfg = SimConfig(grid=neumann(), dt=1e-3, T=0.05, ic=ICSpec(CONSTANT := "constant", value=0.0))
        traj = simulate(cfg, open_loop())
        assert np.all(traj.l2 == 0.0)
        assert np.all(traj.h1 == 0.0)
        assert np.all(traj.energy_residual == 0.0)

    def test_constant_ic_approaches_sqrt_alpha(self):
        # open loop from a small constant converges to u = sqrt(alpha)
        L, alpha = 1.0, 1.0
        cfg = SimConfig(grid=neumann(M=16), dt=1e-3, T=15.0,
                        ic=ICSpec("constant", value=0.1), record_every=100)
        traj = simulate(cfg, ClosedLoopParams(nu=1.0, alpha=alpha, L=L))
        assert abs(traj.l2[-1] - np.sqrt(alpha * L)) < 1e-6

    def test_record_stride_and_final(self):
        cfg = SimConfig(grid=neumann(), dt=1e-3, T=0.01, ic=ICSpec("constant", value=0.1),
                        record_every=3)
        traj = simulate(cfg, open_loop())
        assert traj.times[0] == 0.0
        assert abs(traj.times[-1] - 0.01) < 1e-12
        assert np.all(np.diff(traj.times) > 0)

    def test_blowup_carries_partial_record(self):
        # gain pushes the explicit step over the stability limit mid-run
        g = neumann(M=32)
        p = ClosedLoopParams(nu=1.0, alpha=30.0, L=1.0)
        cfg = SimConfig(grid=g, dt=0.012, T=0.996, ic=ICSpec("constant", value=0.05),
                        record_every=1)
        # dt is inside the limit at |u|=0.05 but outside once u grows toward sqrt(alpha)
        with pytest.raises(BlowupError) as exc:
            simulate(cfg, p)
        rec = exc.value.record
        assert rec is not None and len(rec) >= 1
        assert exc.value.time > 0

    def test_blowup_mid_chunk_partial_record_matches_cut_run(self):
        # the guard trips inside the recorder's second chunk: the partial
        # record must be the run cut at its last recorded step, bit for bit
        g = neumann(M=32)
        p = ClosedLoopParams(nu=1.0, alpha=100.0, L=1.0)
        ic = ICSpec("constant", value=1e-4)
        dt = 1.5e-3
        with pytest.raises(BlowupError, match="stability") as exc:
            simulate(SimConfig(grid=g, dt=dt, T=300 * dt, ic=ic), p)
        rec = exc.value.record
        assert RECORD_CHUNK < len(rec) < 2 * RECORD_CHUNK - 1
        assert exc.value.time == len(rec) * dt
        cut = simulate(SimConfig(grid=g, dt=dt, T=(len(rec) - 1) * dt, ic=ic), p)
        for name in ("times", "energy_residual") + SERIES:
            assert np.array_equal(getattr(rec, name), getattr(cut, name)), name
        # every record, the unflushed tail of the chunk included, is the norm
        # of the stepped state
        st = Stepper(g, p, dt)
        c = coeffs_of(ic.realize(g))
        s = st.samples(c)
        for k, l2 in enumerate(rec.l2):
            if k:
                c, s = st.advance(c, s)
            assert abs(l2 - np.sqrt(l2_sq_of_coeffs(g, c))) <= 1e-13 * l2

    def test_member_that_trips_the_guard_leaves_the_batch(self):
        # one member trips the guard at its first step and one mid-run, in
        # the recorder's second chunk; each takes its single run's error, and
        # the others go on as their single runs
        g = neumann(M=32)
        n_steps = 300
        fourier = InterpolantSpec(FOURIER, 2, 1.0)
        members = [
            (0.0015, ClosedLoopParams(nu=1.0, alpha=100.0, L=1.0),
             ICSpec("single-mode", k=1, amplitude=1e-4)),
            (0.001, ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0, spec=fourier),
             ICSpec("random-band", seed=5, kmax=3, amplitude=1.0)),
            (0.01, ClosedLoopParams(nu=1.0, alpha=100.0, L=1.0),
             ICSpec("single-mode", k=1, amplitude=0.1)),
            (0.0015, ClosedLoopParams(nu=0.5, alpha=4.0, L=1.0),
             ICSpec("random-band", seed=6, kmax=3, amplitude=1.0)),
        ]
        members = [(SimConfig(grid=g, dt=dt, T=n_steps * dt, ic=ic), p) for dt, p, ic in members]
        solo = []
        for cfg, p in members:
            try:
                solo.append(simulate(cfg, p))
            except BlowupError as err:
                solo.append(err)
        assert [isinstance(r, BlowupError) for r in solo] == [True, False, True, False]
        assert solo[2].time == 0.01 and RECORD_CHUNK < len(solo[0].record) < n_steps
        # the first three leave one member, which goes on alone
        for batch in (members, members[:3]):
            outcomes = integrate(batch)
            for (cfg, p), want in zip(batch, solo):
                got = outcomes[cfg, p]
                assert type(got) is type(want)
                if isinstance(want, BlowupError):
                    assert (got.time, got.reason) == (want.time, want.reason)
                    got, want = got.record, want.record
                assert np.array_equal(got.times, want.times)
                for name in SERIES:
                    a, b = getattr(got, name), getattr(want, name)
                    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name

    # M=64 is below the dense/FFT crossover, M=192 above it
    @pytest.mark.parametrize("M, dense", [(64, True), (192, False)])
    def test_open_loop_members_are_rank_0_rows(self, M, dense):
        # an open-loop member is all-zero rows of its group's feedback stack,
        # and a group of open-loop members has rank 0; the members differ in
        # alpha or dt, so the batches take the factored stage maps, and each
        # member goes on as its single run and observes nothing
        g = neumann(M=M)
        n_steps = 40
        volume = InterpolantSpec(VOLUME, 4, 1.0)
        open_, mu0, closed = (
            (1e-4, open_loop(alpha=4.0)),
            (2e-4, ClosedLoopParams(nu=1.0, alpha=3.0, L=1.0, mu=0.0, spec=volume)),
            (1e-4, ClosedLoopParams(nu=1.0, alpha=5.0, L=1.0, mu=20.0,
                                    spec=InterpolantSpec(FOURIER, 2, 1.0))),
        )
        pair = (2e-4, open_loop(alpha=2.0))
        for batch in ([open_, mu0, closed], [open_, pair]):
            members = [(SimConfig(grid=g, dt=dt, T=n_steps * dt, record_every=4, scheme="etdrk2",
                                  ic=ICSpec("random-band", seed=i, kmax=3, amplitude=1.0)), p)
                       for i, (dt, p) in enumerate(batch)]
            st = Stepper(g, [p for _, p in members], [cfg.dt for cfg, _ in members])
            assert (st._S is not None) == dense and not st.shared
            assert st.O_r.shape[1] == (0 if batch[-1] is pair else 3)
            outcomes = integrate(members)
            for cfg, p in members:
                got, want = outcomes[cfg, p], simulate(cfg, p)
                assert np.array_equal(got.times, want.times)
                for name in SERIES:
                    a, b = getattr(got, name), getattr(want, name)
                    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name
                if p.open_loop:
                    for name in ("gamma2", "ih_l2", "pairing"):
                        assert not getattr(got, name).any() and not getattr(want, name).any()

    # (M, bc) on both sides of the dense/FFT crossover
    @pytest.mark.parametrize("M, bc", [(32, NEUMANN), (32, PERIODIC), (256, NEUMANN)])
    @pytest.mark.parametrize(
        "dt, n_steps, amplitude, reason",
        [
            # a finite state whose squared samples overflow: its t=0 record
            # is taken with l4p4 = inf, and the guard stops the first step
            (1e-3, 10, 1e160, "stability limit 0"),
            # a step that passes the guard and overflows in the cube
            (1e-300, 2, 1e140, "non-finite state"),
        ],
        ids=["overflowing-samples", "overflowing-step"],
    )
    def test_non_finite_paths_alone_and_in_a_batch(self, M, bc, dt, n_steps, amplitude, reason):
        # either way the run stops at t=dt with its t=0 record; a healthy
        # member of its batch goes on as its single run
        g = Grid1D(1.0, M, bc)
        p = open_loop()
        bad = (SimConfig(grid=g, dt=dt, T=n_steps * dt,
                         ic=ICSpec("random-band", seed=1, kmax=3, amplitude=amplitude)), p)
        healthy = (SimConfig(grid=g, dt=1e-3, T=n_steps * 1e-3,
                             ic=ICSpec("random-band", seed=2, kmax=3, amplitude=1.0)), p)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowupError, match=reason) as exc:
                simulate(*bad)
            want = simulate(*healthy)
            outcomes = integrate([bad, healthy])
            got_bad, got = outcomes[bad], outcomes[healthy]
        for err in (exc.value, got_bad):
            assert err.time == dt and reason in err.reason
            assert len(err.record) == 1 and err.record.times[0] == 0.0
            if reason.startswith("stability"):
                assert err.record.l4p4[0] == np.inf
        assert np.array_equal(got.times, want.times) and len(got) == n_steps + 1
        for name in SERIES:
            a, b = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name

    def test_one_synthesis_per_stage_and_none_per_record(self, monkeypatch):
        # ETDRK2 synthesizes two stages a step, and a record reads the
        # samples of the step that reached it: 2n + 1 calls for n steps, the
        # first for the initial state.  M=256 takes the FFT transforms, whose
        # synthesis is ``samples_of``
        calls = []

        def counted(grid, coeffs):
            calls.append(grid)
            return samples_of(grid, coeffs)

        monkeypatch.setattr(dynamics, "samples_of", counted)
        n = 7
        cfg = SimConfig(grid=neumann(M=256), dt=1e-3, T=n * 1e-3,
                        ic=ICSpec("random-band", seed=4, kmax=3, amplitude=1.0),
                        record_every=1, scheme="etdrk2")
        assert len(simulate(cfg, open_loop())) == n + 1
        assert len(calls) == 2 * n + 1

    def test_batch_rejects_foreign_runs(self):
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0)
        ic = ICSpec("constant", value=0.1)
        cfg = SimConfig(grid=neumann(M=32), dt=1e-3, T=1e-2, ic=ic)
        with pytest.raises(ValueError, match="grid length"):
            integrate([(SimConfig(grid=Grid1D(2.0, 32), dt=1e-3, T=1e-2, ic=ic), p)])
        with pytest.raises(ValueError, match="not a member"):
            simulate(cfg, p, integrate([(replace(cfg, T=2e-2), p)]))

    def test_final_time_whole_steps(self):
        ic = ICSpec("constant", value=0.1)
        with pytest.raises(ValueError, match="whole number of steps"):
            SimConfig(grid=neumann(), dt=0.3, T=1.0, ic=ic)
        assert SimConfig(grid=neumann(), dt=0.1, T=1.0, ic=ic).n_steps == 10

    def test_off_stride_last_record_residual(self):
        # T = 1.003 puts the last record 3 steps after the one before it;
        # the residual there must stay at the level of the on-stride records
        g = neumann(M=32)
        spec = InterpolantSpec(FOURIER, 2, 1.0)
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0, spec=spec)
        ic = ICSpec("random-band", seed=5, kmax=3, amplitude=1.0)
        tails = []
        for T in (1.0, 1.003):
            cfg = SimConfig(grid=g, dt=1e-3, T=T, ic=ic, record_every=10, scheme="etdrk2")
            tails.append(simulate(cfg, p).energy_residual[-1])
        assert tails[1] < 1e-6
        assert tails[1] < 100 * max(tails[0], 1e-9)

    def test_energy_residual_small_closed_loop(self):
        g = neumann(M=32)
        spec = InterpolantSpec(FOURIER, 2, 1.0)
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0, spec=spec)
        cfg = SimConfig(grid=g, dt=2e-4, T=1.0, ic=ICSpec("random-band", seed=5, kmax=3, amplitude=1.0),
                        record_every=1, scheme="etdrk2")
        traj = simulate(cfg, p)
        allowance = 1e-3 * max(np.max(traj.h1) ** 2, 1.0)
        assert np.max(traj.energy_residual) <= allowance

    def test_delta_loop_runs_and_decays(self):
        g = Grid1D(1.0, 64, PERIODIC)
        spec = InterpolantSpec(DELTA, 4, 1.0)
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=4.5, spec=spec)
        cfg = SimConfig(grid=g, dt=2e-4, T=2.0, ic=ICSpec("random-band", seed=2, kmax=2, amplitude=1.0),
                        record_every=10, scheme="etdrk2")
        traj = simulate(cfg, p)
        assert traj.l2[-1] < 0.3 * traj.l2[0]
        assert np.all(np.isfinite(traj.gamma2))


class TestCheckConditions:
    def test_fourier_gain_margin_example(self):
        spec = InterpolantSpec(FOURIER, 2, 1.0)
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0, spec=spec)
        rep = check_conditions(p)
        assert not rep.open_loop
        assert rep.c == pytest.approx(1.0 / np.pi)
        assert rep.thm51.applies and rep.thm51.satisfied
        assert rep.thm51.predicted_rate == pytest.approx(1.0)
        assert rep.thm41.satisfied
        assert rep.thm41.details["mu_c2_h2"] == pytest.approx(10.0 / (4 * np.pi ** 2))

    def test_open_loop_flags(self):
        rep = check_conditions(open_loop())
        assert rep.open_loop
        for chk in (rep.thm21_proof, rep.thm41, rep.thm51, rep.thm71):
            assert not chk.applies and not chk.satisfied

    def test_delta_example(self):
        spec = InterpolantSpec(DELTA, 4, 1.0)
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=4.5, spec=spec)
        rep = check_conditions(p)
        assert rep.thm71.applies and rep.thm71.satisfied
        assert rep.thm71.predicted_rate == pytest.approx(0.25)
        assert rep.thm71.details["two_mu_h2"] == pytest.approx(0.5625)

    def test_volume_proof_vs_printed(self):
        spec = InterpolantSpec(VOLUME, 4, 1.0)
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=400.0, spec=spec)
        rep = check_conditions(p)
        assert rep.thm21_proof.satisfied
        assert rep.thm21_printed.satisfied
        rate = 1.0 * (2 * np.pi * 4) ** 2 - 4.0
        assert rep.thm21_proof.predicted_rate == pytest.approx(rate)


def test_next_fast_len_is_the_smallest_5_smooth_size():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in range(1, 5001):
        m = n
        while not smooth(m):
            m += 1
        assert next_fast_len(n) == m, n
