import tracemalloc
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
from detctl import analysis, dynamics
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
from detctl.interpolants import DELTA, FOURIER, NODAL, VOLUME, InterpolantSpec, control_operator


def neumann(M=64, L=1.0):
    return Grid1D(L, M, NEUMANN)


def open_loop(nu=1.0, alpha=4.0, L=1.0):
    return ClosedLoopParams(nu=nu, alpha=alpha, L=L)


def stepper_groups(monkeypatch):
    """A list that gets (working grid M, members, stack rows R) of every Stepper
    made from now on."""
    made = []
    init = Stepper.__init__

    def counted(self, grid, p, dt, scheme="etd1"):
        init(self, grid, p, dt, scheme)
        made.append((self.grid.M, len(self.params), self.O.shape[0]))

    monkeypatch.setattr(Stepper, "__init__", counted)
    return made


def cells(f):
    """The closure variables of ``f``, by name."""
    return dict(zip(f.__code__.co_freevars, (c.cell_contents for c in f.__closure__)))


def stacked(st):
    """Whether ``st`` steps on the stacked body (a single run on dense
    transforms) and not on the factored one."""
    return "K1" in cells(st._steps[0])


def rhs(u, p):
    """Samples of nu u_xx + alpha u - u^3 - mu I_h(u) from the stepper's cube and
    control operator."""
    c = coeffs_of(u)
    st = Stepper(u.grid, p, dt=1.0)
    cubed = st.cube(c.view(np.float64)[None])[0][0].view(c.dtype)
    n = p.alpha * c - cubed
    if not p.open_loop:
        ctl = control_operator(p.spec, u.grid)
        n = n - p.mu * ctl.A @ (ctl.O @ c).real
    return samples_of(u.grid, -p.nu * u.grid.wavenumbers ** 2 * c + n)


def step(u, p, dt):
    """Samples after one exponential-Euler step of the stepper."""
    st, c = Stepper(u.grid, p, dt), coeffs_of(u)
    x = c.view(np.float64)[None]
    x, _ = st.advance(x, st.samples(x))
    return samples_of(u.grid, x[0].view(c.dtype))


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
        # on M=16, k=12 and k=20 sample as k=4; k=8 is the Nyquist mode (-1)^j,
        # whose column the record would weigh twice
        g = Grid1D(1.0, 16, PERIODIC)
        for k in (8, 9, 12, 20):
            with pytest.raises(ValueError, match=rf"k={k} exceeds \(M-1\)/2=7: aliased"):
                ICSpec("single-mode", k=k, amplitude=1.0).realize(g)

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
        x = coeffs_of(u)[None]
        s = st.samples(x)
        for _ in range(n):
            x, s = st.advance(x, s)
        lam = p.alpha - p.nu * (k * np.pi / p.L) ** 2
        ratio = np.sqrt(l2_sq_of_coeffs(g, x[0])) / l2_norm(u)
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
            alone, _ = one.advance(x[row:row + 1], one.samples(x[row:row + 1]))
            assert np.max(np.abs(y[row] - alone[0])) <= 1e-14 * np.max(np.abs(alone))

    @pytest.mark.parametrize("order", ([0, 1, 2, 3, 4, 5], [5, 2, 0, 4, 1, 3]))
    def test_guard_checks_the_blocks_of_equal_cap(self, order):
        # three caps on max u^2, 2^2, 3^2 and 4^2, two constant members each,
        # in ascending order of cap or shuffled.  Every row within its own
        # cap steps, although the batch's largest sample is past the
        # smallest cap; one row of the middle block past its cap is the one
        # failed row
        g = neumann(M=32)
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=3.0,
                             spec=InterpolantSpec(FOURIER, 2, 1.0))
        limits = [2.0, 2.0, 3.0, 3.0, 4.0, 4.0]
        dts = [stability_limit(p.alpha, p.mu, limits[i]) for i in order]
        st = Stepper(g, [p] * 6, dts)
        # in ascending order every run of equal cap is one block
        caps = [cap for cap, _, _ in st._blocks]
        assert caps == sorted(caps) and len(caps) == (3 if order == sorted(order) else 6)
        assert caps[0] == pytest.approx(4.0) and caps[-1] == pytest.approx(16.0)
        for amps, failed in (([1.9, 1.5, 2.9, 2.5, 3.9, 3.5], []),
                             ([1.9, 1.5, 2.9, 3.1, 3.9, 3.5], [3])):
            x = np.zeros((6, g.M))
            x[:, 0] = [amps[i] for i in order]
            s = st.samples(x)
            assert s[2] > st._cap_min
            if not failed:
                y, _ = st.advance(x, s)
                assert np.isfinite(y).all()
                continue
            with pytest.raises(BlowupError, match="stability") as exc:
                st.advance(x, s)
            assert list(exc.value.failed) == [order.index(row) for row in failed]

    # the stacked body (a single run on dense transforms: the open loop and
    # volume), and the factored body: dense (members that differ, and
    # identical members) and on the FFT transforms (M = 256)
    @pytest.mark.parametrize("M, alphas, spec", [
        (64, [4.0], None), (64, [4.0], InterpolantSpec(VOLUME, 4, 1.0)),
        (64, [4.0, 5.0], InterpolantSpec(VOLUME, 4, 1.0)),
        (256, [4.0, 5.0], InterpolantSpec(VOLUME, 4, 1.0)),
        (256, [4.0], InterpolantSpec(VOLUME, 4, 1.0)),
        (64, [4.0] * 3, InterpolantSpec(VOLUME, 4, 1.0)),
        (256, [4.0] * 3, InterpolantSpec(VOLUME, 4, 1.0))])
    @pytest.mark.parametrize("scheme", ["etd1", "etdrk2"])
    def test_every_map_starts_on_a_64_byte_boundary(self, M, alphas, spec, scheme):
        ps = [ClosedLoopParams(nu=1.0, alpha=a, L=1.0, mu=0.0 if spec is None else 20.0, spec=spec)
              for a in alphas]
        st = Stepper(neumann(M=M), ps, 1e-3, scheme)
        assert (st._S is not None) == (M == 64) and stacked(st) == (M == 64 and len(alphas) == 1)
        rec = dynamics._Recorder(st, [0, 1], [[0, 1]] * len(ps))
        # the steps of both parities and the stage closures they call: on the
        # factored body the ETD1 stage and the weighted stage sum
        steps, todo = [], list(st._steps)
        while todo:
            steps.append(cells(todo.pop()))
            todo += [steps[-1][name] for name in ("etd1", "weighted") if name in steps[-1]]
        # the operands of the stages' matrix products, and the workspace the
        # stages write; the row weights (d1, w1, ...) are elementwise and may
        # start anywhere.  On the stacked body the stacked maps K1 = [P, -Q]^T
        # and K2 = [W2L, -W2T]^T, and the operands [x | w^3] (U) and [z | c]
        # (zc) of their products
        if stacked(st):
            read = ("ST", "K1", "K2", "U", "zc", "y", "v", "wn", "sqn")
            want = {"ST", "K1", "U", "wn", "sqn"} | (
                {"K2", "zc", "y", "v"} if scheme == "etdrk2" else set())
        else:
            read = ("OT", "AT", "a", "f", "g", "z", "w3", "v", "v3", "wn", "sqn")
            want = {"OT", "AT", "a", "w3", "wn", "sqn"}
        maps = [a for step in steps for name, a in step.items() if name in read]
        assert {name for step in steps for name in step if name in read} >= want
        maps += list(st._x)
        # S and T, applied by the dense transforms' closures
        if st._S is not None:
            maps += [cells(st._synth)["ST"], cells(st._analyze)["TT"]]
        # every operand is a C-contiguous copy; an empty array (the open
        # loop's stack) is never read
        for a in maps + [rec._HT]:
            assert a.flags.c_contiguous, a.shape
            assert a.size == 0 or a.ctypes.data % 64 == 0, a.shape

    def test_nan_state_rejected(self):
        # a NaN state gives a NaN limit, which no comparison with dt may let
        # through; M=256 takes the FFT transforms above the dense crossover
        p = ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0)
        for M in (32, 256):
            x = np.zeros((1, M))
            x[0, 3] = np.nan
            st = Stepper(neumann(M=M), p, 1e-3)
            with pytest.raises(BlowupError, match="stability"):
                st.advance(x, st.samples(x))

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


class TestWorkspace:
    """``advance`` writes every stage into the Stepper's own buffers and
    returns them: the new state and its samples never share memory with
    the state and samples it was given, stay valid through the next step,
    and a steady-state step allocates no array."""

    # the stacked body of a single run with a diagonal Lin (fourier on
    # Neumann grids) and with a dense one (volume), and the factored body
    # (members that differ), all on the dense side
    BODIES = {
        "stacked-fourier": [ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0,
                                             spec=InterpolantSpec(FOURIER, 2, 1.0))],
        "stacked-volume": [ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=20.0,
                                            spec=InterpolantSpec(VOLUME, 4, 1.0))],
        "factored": [ClosedLoopParams(nu=1.0, alpha=alpha, L=1.0, mu=20.0,
                                      spec=InterpolantSpec(VOLUME, N, 1.0))
                     for alpha, N in ((4.0, 4), (5.0, 4), (6.0, 2))],
    }

    @staticmethod
    def state(B, n, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(-1.0, 1.0, (B, n)) / (1.0 + np.arange(n)) ** 2

    @pytest.mark.parametrize("body", list(BODIES))
    @pytest.mark.parametrize("scheme", ["etd1", "etdrk2"])
    def test_advance_returns_its_own_arrays_valid_through_the_next_step(self, body, scheme):
        ps = self.BODIES[body]
        st = Stepper(neumann(), ps, 1e-4, scheme)
        assert st._S is not None and stacked(st) == (body != "factored")
        x = self.state(len(ps), 64)
        s = st.samples(x)
        # what samples and cube return is the caller's: no later step writes it
        fresh = [s[0], s[1], st.cube(x)[0]]
        kept = [a.copy() for a in fresh]
        held = []   # (state, samples) of the last two steps, with copies
        for _ in range(5):
            y, t = st.advance(x, s)
            for out in (y, t[0], t[1]):
                assert not any(np.shares_memory(out, a) for a in (x, s[0], s[1]))
            # the state a step was given, and its samples, are as they were
            if held:
                (x_, s_), copies = held[-1]
                assert all(np.array_equal(a, b) for a, b in zip((x_, *s_[:2]), copies))
            x, s = y, t
            held.append(((x, s), [a.copy() for a in (x, s[0], s[1])]))
            fresh += [*st.samples(x)[:2], st.cube(x)[0]]
            kept += [a.copy() for a in fresh[-3:]]
        for a, b in zip(fresh, kept):
            assert np.array_equal(a, b)
        assert np.array_equal(s[2], st.samples(x)[2])

    @pytest.mark.parametrize("case", ["thm41", "thm21-etd1", "sweep"])
    def test_a_steady_state_step_allocates_no_array(self, case):
        # thm41's single run and thm21's in ETD1 (the stacked body, ETDRK2
        # and ETD1), or the sweep preset's 24 cells (the factored ETD1 body,
        # B = 24, R = 36); one step a call, and many steps in one call
        if case == "thm41":
            ps, grids, dts, scheme = self.BODIES["stacked-fourier"], neumann(), 1e-4, "etdrk2"
        elif case == "thm21-etd1":
            ps, grids, dts, scheme = self.BODIES["stacked-volume"], neumann(), 2e-4, "etd1"
        else:
            sweep = [analysis.sweep_cell_config(1.0, alpha, 1.0, 5.0 * alpha, N)
                     for alpha in (4.0, 16.0, 64.0) for N in range(1, 9)]
            ps, grids = [p for _, p in sweep], [cfg.grid for cfg, _ in sweep]
            dts, scheme = [cfg.dt for cfg, _ in sweep], "etd1"
        st = Stepper(grids, ps, dts, scheme)
        assert stacked(st) == (case != "sweep")
        x = self.state(len(st.params), st.O.shape[1]) * 0.1
        x[:, st.grid.M // 2:] = 0.0
        s = st.samples(x)
        x, s = st.advance(x, s, 3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(10):
                x, s = st.advance(x, s)
            x, s = st.advance(x, s, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < x.nbytes, (peak - base, x.nbytes)

    # the stacked body, and the factored body on the dense transforms (a
    # batch) and on the FFT ones (a single run above the crossover)
    @pytest.mark.parametrize("M, alphas", [(64, [4.0]), (64, [4.0, 5.0]), (256, [4.0])],
                             ids=["stacked", "factored-dense", "factored-fft"])
    @pytest.mark.parametrize("scheme", ["etd1", "etdrk2"])
    def test_k_steps_in_one_call_are_k_single_steps(self, M, alphas, scheme):
        # bit for bit, the state and its samples, from either parity; a call
        # of no step hands back the state it was given
        ps = [ClosedLoopParams(nu=1.0, alpha=alpha, L=1.0, mu=20.0,
                               spec=InterpolantSpec(VOLUME, 4, 1.0)) for alpha in alphas]
        one, many = (Stepper(neumann(M=M), ps, 1e-4, scheme) for _ in range(2))
        assert stacked(one) == (M == 64 and len(ps) == 1)
        x = self.state(len(ps), M)
        y, t = x, one.samples(x)
        want = []
        for _ in range(7):
            y, t = one.advance(y, t)
            want.append([a.copy() for a in (y, *t[:2])] + [t[2]])
        y, t = many.advance(x, many.samples(x), 0)
        assert np.array_equal(y, x)
        for k, n in ((3, 3), (4, 7)):
            y, t = many.advance(y, t, k)
            for a, b in zip([y, *t], want[n - 1]):
                assert np.array_equal(a, b)

    # blow51, thm51 at dt 0.01 and amplitude 3, trips the guard at its first
    # step; an open loop at alpha = 100 from a small constant trips it
    # mid-run, alone (the stacked body) and beside a member that does not
    # (the factored body)
    BLOW51 = (ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0,
                               spec=InterpolantSpec(FOURIER, 2, 1.0)),
              0.01, ICSpec("random-band", seed=20, kmax=3, amplitude=3.0))
    GROWS = (open_loop(alpha=100.0), 1.5e-3, ICSpec("constant", value=1e-4))
    HEALTHY = (ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0,
                                spec=InterpolantSpec(FOURIER, 2, 1.0)),
               1e-3, ICSpec("random-band", seed=5, kmax=3, amplitude=1.0))

    @pytest.mark.parametrize("case", ["blow51", "mid-run", "batch"])
    def test_a_trip_at_step_j_of_k_reports_j_steps_and_their_state(self, case):
        # the call that meets the trip raises the error of a single step
        # there, with the steps it took and the state and samples they
        # reached, those of as many single steps
        members = {"blow51": [self.BLOW51], "mid-run": [self.GROWS],
                   "batch": [self.GROWS, self.HEALTHY]}[case]
        g = neumann()
        ps, dts = [p for p, _, _ in members], [dt for _, dt, _ in members]
        one, many = (Stepper([g] * len(ps), ps, dts, "etdrk2") for _ in range(2))
        assert stacked(one) == (case != "batch")
        x = np.stack([coeffs_of(ic.realize(g)) for _, _, ic in members])
        y, t, j = x, one.samples(x), 0
        while True:
            try:
                y, t = one.advance(y, t)
            except BlowupError as err:
                want = err
                break
            j += 1
        assert (j == 0) == (case == "blow51") and list(want.failed) == [0]
        with pytest.raises(BlowupError) as exc:
            many.advance(x, many.samples(x), j + 5)
        err = exc.value
        assert (err.steps, err.reason, err.failed) == (j, want.reason, want.failed)
        assert np.array_equal(err.state[0], y)
        for a, b in zip(err.state[1], t):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("scheme", ["etd1", "etdrk2"])
    def test_an_open_loop_group_makes_no_feedback_product(self, scheme):
        # members that differ and have no feedback (R = 0) step on the
        # factored body without reading the stack: with its transposes
        # taken away, the step is that of the intact Stepper
        ps = [open_loop(alpha=alpha) for alpha in (2.0, 4.0)]
        st, intact = (Stepper(neumann(), ps, 1e-4, scheme) for _ in range(2))
        assert st.O.shape[0] == 0 and not stacked(st)
        weighted = cells(cells(st._steps[0])["etd1"])["weighted"]
        stack = dict(zip(weighted.__code__.co_freevars, weighted.__closure__))
        stack["OT"].cell_contents = stack["AT"].cell_contents = None
        x = self.state(2, 64)
        y, _ = st.advance(x, st.samples(x))
        assert np.array_equal(y, intact.advance(x, intact.samples(x))[0])


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
        x = coeffs_of(ic.realize(g))[None]
        s = st.samples(x)
        for k, l2 in enumerate(rec.l2):
            if k:
                x, s = st.advance(x, s)
            assert abs(l2 - np.sqrt(l2_sq_of_coeffs(g, x[0]))) <= 1e-13 * l2

    def test_blow51_fails_at_its_first_step_with_its_initial_record(self):
        # thm51 at dt 0.01 and amplitude 3: the failure time, the reason and
        # the one record, of the initial state, that this run has always had
        cfg = SimConfig(grid=neumann(), dt=0.01, T=2.0, record_every=2, scheme="etdrk2",
                        ic=ICSpec("random-band", seed=20, kmax=3, amplitude=3.0))
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0,
                             spec=InterpolantSpec(FOURIER, 2, 1.0))
        with pytest.raises(BlowupError) as exc:
            simulate(cfg, p)
        err = exc.value
        assert (err.time, err.reason) == (0.01, "dt=0.01 exceeds the stability limit 0.00659")
        assert err.record.times.tolist() == [0.0] and np.isnan(err.record.energy_residual[0])
        want = {"l2": 3.0, "h1x": 7.10611163425852, "h1": 7.713418344582659,
                "l4p4": 122.23335088377175, "gamma2": 10.293368392749654,
                "ih_l2": 2.9995760645805634, "pairing": 8.99745656720462}
        assert {name: float(getattr(err.record, name)[0]) for name in SERIES} == want

    def test_member_that_trips_the_guard_leaves_the_batch(self, monkeypatch):
        # one member trips the guard at its first step and one mid-run, in
        # the recorder's second chunk; each takes its single run's error, and
        # the others go on as their single runs, in the same Stepper.  The
        # third member's cap on max u^2 is negative (dt = 0.01 > 0.5 / alpha),
        # so its row, held at 0, would trip the guard again if it were still
        # guarded
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
        made = stepper_groups(monkeypatch)
        for batch, groups in ((members, [(32, 4, 3)]), (members[:3], [(32, 3, 3)])):
            made.clear()
            outcomes = integrate(batch)
            assert made == groups
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
        # an open-loop member is a zero gain row of its group's shared stack,
        # which holds only the controllers that act, and a group of open-loop
        # members has R = 0; the members differ in alpha or dt, so the
        # batches take the factored stage maps, and each member goes on as
        # its single run and observes nothing
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
            assert (st._S is not None) == dense and not stacked(st)
            assert st.O.shape[0] == (0 if batch[-1] is pair else 3)
            for row, (_, p) in zip(st.G, members):
                assert row.any() != p.open_loop
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

    # fourier on Neumann grids (a diagonal Lin) and delta on periodic ones
    # (a dense Lin), at M=64 below the dense/FFT crossover and M=192 above
    @pytest.mark.parametrize("bc, M, spec", [
        (NEUMANN, 64, InterpolantSpec(FOURIER, 2, 1.0)),
        (NEUMANN, 192, InterpolantSpec(FOURIER, 2, 1.0)),
        (PERIODIC, 64, InterpolantSpec(DELTA, 4, 1.0)),
        (PERIODIC, 192, InterpolantSpec(DELTA, 4, 1.0))])
    @pytest.mark.parametrize("scheme", ["etd1", "etdrk2"])
    def test_an_ensemble_of_one_parameter_set_matches_its_single_runs(
            self, bc, M, spec, scheme, monkeypatch):
        # one parameter set and one dt over 12 initial conditions: one
        # Stepper steps them all on the factored body, and each member goes
        # on as its single run
        g = Grid1D(1.0, M, bc)
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0, spec=spec)
        members = [(SimConfig(grid=g, dt=1e-4, T=40e-4, record_every=4, scheme=scheme,
                              ic=ICSpec("random-band", seed=seed, kmax=3, amplitude=1.0)), p)
                   for seed in range(12)]
        made = stepper_groups(monkeypatch)
        outcomes = integrate(members)
        assert made == [(M, 12, spec.rank)]
        st = Stepper(g, [p] * 12, 1e-4, scheme)
        assert not stacked(st) and (st._S is not None) == (M == 64)
        for cfg, p in members:
            got, want = outcomes[cfg, p], simulate(cfg, p)
            assert np.array_equal(got.times, want.times) and len(got) == 11
            for name in SERIES:
                a, b = getattr(got, name), getattr(want, name)
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name

    def test_members_with_one_spec_stack_its_rows_once(self):
        spec = InterpolantSpec(FOURIER, 2, 1.0)
        ps = [ClosedLoopParams(nu=1.0, alpha=alpha, L=1.0, mu=mu, spec=spec)
              for alpha, mu in ((4.0, 10.0), (5.0, 20.0))]
        st = Stepper(neumann(), ps, [1e-4, 2e-4])
        q = control_operator(spec, neumann()).q
        assert st.O.shape == (len(q), 64) and st.A.shape == (64, len(q))
        assert np.array_equal(st.q, q)
        assert np.array_equal(st.G, [[10.0] * len(q), [20.0] * len(q)])

    def test_periodic_delta_batch_with_per_member_dt_matches_single_runs(self):
        # two delta controllers, one of them shared by two members, stacked
        # as R = 4 + 2 rows; each member steps with its own dt, gain and alpha
        g = Grid1D(1.0, 64, PERIODIC)
        n_steps = 150
        four, two = InterpolantSpec(DELTA, 4, 1.0), InterpolantSpec(DELTA, 2, 1.0)
        batch = [
            (1e-4, ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=4.5, spec=four)),
            (2e-4, ClosedLoopParams(nu=1.0, alpha=2.0, L=1.0, mu=8.0, spec=two)),
            (1.5e-4, ClosedLoopParams(nu=0.5, alpha=1.5, L=1.0, mu=9.0, spec=four)),
        ]
        members = [(SimConfig(grid=g, dt=dt, T=n_steps * dt, record_every=7, scheme="etdrk2",
                              ic=ICSpec("random-band", seed=11 + i, kmax=2, amplitude=1.0)), p)
                   for i, (dt, p) in enumerate(batch)]
        st = Stepper(g, [p for _, p in members], [cfg.dt for cfg, _ in members], "etdrk2")
        assert st._S is not None and not stacked(st) and st.O.shape[0] == 6
        outcomes = integrate(members)
        for cfg, p in members:
            got, want = outcomes[cfg, p], simulate(cfg, p)
            assert np.array_equal(got.times, want.times) and len(got) == n_steps // 7 + 2
            for name in SERIES:
                a, b = getattr(got, name), getattr(want, name)
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name

    @pytest.mark.parametrize("scheme", ["etd1", "etdrk2"])
    def test_neumann_members_of_any_M_share_one_group(self, scheme, monkeypatch):
        # one Stepper on the largest grid, M = 84, steps members on M = 64,
        # 72, 80 and 84 zero-padded to its band; one volume spec on two grids
        # stacks its rows twice, and each member goes on as its single run
        made = stepper_groups(monkeypatch)
        n_steps = 60
        volume = InterpolantSpec(VOLUME, 2, 1.0)
        batch = [
            (64, 1e-3, ClosedLoopParams(nu=1.0, alpha=16.0, L=1.0, mu=80.0, spec=volume)),
            (72, 1e-3, ClosedLoopParams(nu=1.0, alpha=8.0, L=1.0, mu=40.0,
                                        spec=InterpolantSpec(NODAL, 3, 1.0))),
            (80, 5e-4, ClosedLoopParams(nu=0.5, alpha=4.0, L=1.0, mu=20.0,
                                        spec=InterpolantSpec(FOURIER, 4, 1.0))),
            (84, 1e-3, open_loop(alpha=4.0)),
            (84, 2e-3, ClosedLoopParams(nu=1.0, alpha=16.0, L=1.0, mu=80.0, spec=volume)),
        ]
        members = [(SimConfig(grid=neumann(M=M), dt=dt, T=n_steps * dt, record_every=7,
                              scheme=scheme,
                              ic=ICSpec("random-band", seed=i, kmax=3, amplitude=1.0)), p)
                   for i, (M, dt, p) in enumerate(batch)]
        outcomes = integrate(members)
        assert made == [(84, 5, 12)]
        st = Stepper([cfg.grid for cfg, _ in members], [p for _, p in members],
                     [cfg.dt for cfg, _ in members], scheme)
        ranks = [len(control_operator(p.spec, cfg.grid).q) for cfg, p in members if p.spec]
        assert st.O.shape == (sum(ranks), 84) == (2 + 3 + 5 + 2, 84)
        for cfg, p in members:
            got, want = outcomes[cfg, p], simulate(cfg, p)
            assert np.array_equal(got.times, want.times) and len(got) == n_steps // 7 + 2
            for name in SERIES:
                a, b = getattr(got, name), getattr(want, name)
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    def test_one_run_on_two_grids_takes_the_factored_maps(self):
        # the same parameters and dt on M = 64 and 128: a batch of two, on
        # the factored body
        p = ClosedLoopParams(nu=1.0, alpha=16.0, L=1.0, mu=80.0, spec=InterpolantSpec(VOLUME, 4, 1.0))
        members = [(SimConfig(grid=neumann(M=M), dt=1e-3, T=0.03,
                              ic=ICSpec("random-band", seed=2, kmax=3, amplitude=1.0)), p)
                   for M in (64, 128)]
        assert not stacked(Stepper([neumann(M=64), neumann(M=128)], [p, p], 1e-3))
        outcomes = integrate(members)
        for cfg, _ in members:
            got, want = outcomes[cfg, p], simulate(cfg, p)
            for name in SERIES:
                a, b = getattr(got, name), getattr(want, name)
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    def test_a_group_is_cut_between_grids_where_its_stack_outgrows_its_band(
            self, monkeypatch):
        # fourier controllers with the mean (rank N + 1): M=64 and M=72 stack
        # 2 + 3 + 4 = 9 <= 72 rows and merge; M=80 would bring R to 87 > 80,
        # so it starts a part, and M=84's own 133 > 84 rows stay whole
        made = stepper_groups(monkeypatch)
        Ns = {64: (1, 2), 72: (3,), 80: (17, 18, 19, 20), 84: tuple(range(15, 22))}
        members = [(SimConfig(grid=neumann(M=M), dt=1e-3, T=0.02,
                              ic=ICSpec("random-band", seed=N, kmax=3, amplitude=1.0)),
                    ClosedLoopParams(nu=1.0, alpha=4.0 + N, L=1.0, mu=30.0,
                                     spec=InterpolantSpec(FOURIER, N, 1.0)))
                   for M in (84, 80, 72, 64) for N in Ns[M]]
        outcomes = integrate(members)
        assert made == [(72, 3, 9), (80, 4, 78), (84, 7, 133)]
        for cfg, p in members:
            got, want = outcomes[cfg, p], simulate(cfg, p)
            for name in SERIES:
                a, b = getattr(got, name), getattr(want, name)
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    def test_periodic_members_of_different_M_keep_their_own_groups(self, monkeypatch):
        # an even M's Nyquist column weighs L on its own periodic grid and 2L
        # on a larger one, so periodic grids do not merge, and a Stepper
        # refuses to mix them
        made = stepper_groups(monkeypatch)
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=20.0, spec=InterpolantSpec(DELTA, 4, 1.0))
        members = [(SimConfig(grid=Grid1D(1.0, M, PERIODIC), dt=1e-3, T=0.02,
                              ic=ICSpec("random-band", seed=3, kmax=3, amplitude=1.0)), p)
                   for M in (64, 72)]
        outcomes = integrate(members)
        assert made == [(64, 1, 4), (72, 1, 4)]
        for cfg, _ in members:
            got, want = outcomes[cfg, p], simulate(cfg, p)
            for name in ("times",) + SERIES:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        for grids in ([Grid1D(1.0, 64, PERIODIC), Grid1D(1.0, 72, PERIODIC)],
                      [neumann(M=64), Grid1D(1.0, 64, PERIODIC)], [neumann(M=64), neumann(L=2.0)]):
            with pytest.raises(ValueError, match="grids"):
                Stepper(grids, [open_loop()] * 2, 1e-3)

    def test_member_of_a_mixed_M_group_that_trips_the_guard_leaves_with_its_record(
            self, monkeypatch):
        # the M=84 member trips the guard mid-run, in the recorder's second
        # chunk, and leaves with its single run's error; its row stays in the
        # batch at 0, and the others go on as their single runs in the same
        # Stepper on M = 84
        made = stepper_groups(monkeypatch)
        n_steps = 300
        batch = [
            (84, 0.0015, ClosedLoopParams(nu=1.0, alpha=100.0, L=1.0),
             ICSpec("single-mode", k=1, amplitude=1e-4)),
            (64, 0.001, ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0,
                                         spec=InterpolantSpec(FOURIER, 2, 1.0)),
             ICSpec("random-band", seed=5, kmax=3, amplitude=1.0)),
            (72, 0.0015, ClosedLoopParams(nu=0.5, alpha=4.0, L=1.0, mu=20.0,
                                          spec=InterpolantSpec(VOLUME, 4, 1.0)),
             ICSpec("random-band", seed=6, kmax=3, amplitude=1.0)),
        ]
        members = [(SimConfig(grid=neumann(M=M), dt=dt, T=n_steps * dt, ic=ic), p)
                   for M, dt, p, ic in batch]
        outcomes = integrate(members)
        assert made == [(84, 3, 7)]
        solo = []
        for cfg, p in members:
            try:
                solo.append(simulate(cfg, p))
            except BlowupError as err:
                solo.append(err)
        assert [isinstance(r, BlowupError) for r in solo] == [True, False, False]
        assert RECORD_CHUNK < len(solo[0].record) < n_steps
        for (cfg, p), want in zip(members, solo):
            got = outcomes[cfg, p]
            assert type(got) is type(want)
            if isinstance(want, BlowupError):
                assert (got.time, got.reason) == (want.time, want.reason)
                got, want = got.record, want.record
            assert np.array_equal(got.times, want.times)
            for name in SERIES:
                a, b = getattr(got, name), getattr(want, name)
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    def test_members_with_their_own_schedules_share_one_group(self, monkeypatch):
        # one Stepper on M = 64 steps members that differ in T, record_every
        # and dt to the largest step count.  Each records its own schedule;
        # the first finishes at its step 50, after which its row is 0 and
        # unguarded, and the third (alpha = 100, on the largest grid) trips
        # the guard at its step 97 with its single run's error and record
        made = stepper_groups(monkeypatch)
        fourier = InterpolantSpec(FOURIER, 2, 1.0)
        batch = [
            (32, 1e-3, 50, 7, ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0, spec=fourier),
             ICSpec("random-band", seed=5, kmax=3, amplitude=1.0)),
            (48, 5e-4, 120, 1, ClosedLoopParams(nu=1.0, alpha=8.0, L=1.0, mu=40.0,
                                                spec=InterpolantSpec(VOLUME, 4, 1.0)),
             ICSpec("random-band", seed=6, kmax=3, amplitude=1.0)),
            (64, 1.5e-3, 300, 1, ClosedLoopParams(nu=1.0, alpha=100.0, L=1.0),
             ICSpec("single-mode", k=1, amplitude=1e-4)),
            (32, 2e-3, 200, 9, open_loop(nu=0.5),
             ICSpec("random-band", seed=7, kmax=3, amplitude=1.0)),
        ]
        members = [(SimConfig(grid=neumann(M=M), dt=dt, T=n * dt, record_every=every, ic=ic), p)
                   for M, dt, n, every, p, ic in batch]
        first = members[0][1]
        seen = []   # (first member's row, its cap) at every step, as its call finds them
        advance = Stepper.advance

        def watched(self, c, s, k=1):
            row = self.params.index(first)
            seen.extend([(c[row].copy(), self._caps[row])] * k)
            return advance(self, c, s, k)

        monkeypatch.setattr(Stepper, "advance", watched)
        outcomes = integrate(members)
        assert made == [(64, 4, 3 + 4)]
        assert all(row.any() and cap < np.inf for row, cap in seen[:50])
        assert all(not row.any() and cap == np.inf for row, cap in seen[50:])
        assert len(seen) > 200
        monkeypatch.setattr(Stepper, "advance", advance)
        for (cfg, p), (_, dt, n, every, _, _) in zip(members, batch):
            try:
                want = simulate(cfg, p)
            except BlowupError as err:
                want = err
            got = outcomes[cfg, p]
            assert type(got) is type(want)
            if isinstance(want, BlowupError):
                assert p.alpha == 100.0 and round(want.time / dt) == 97
                assert (got.time, got.reason) == (want.time, want.reason)
                got, want = got.record, want.record
                n = 96
            steps = list(range(0, n + 1, every))
            steps += [] if steps[-1] == n else [n]
            assert np.array_equal(got.times, np.array(steps) * dt)
            assert np.array_equal(got.times, want.times)
            for name in SERIES:
                a, b = getattr(got, name), getattr(want, name)
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    def test_members_of_widely_spread_step_counts_step_in_runs(self, monkeypatch):
        # four members of 1,000 steps and four of 20 on one grid: one run of
        # 1,000 steps would cost 1,000 (8 + 8) row-steps, two runs 1,000 (8 + 4)
        # + 20 (8 + 4), so they step as two; 100 steps and 80 stay one run
        made = stepper_groups(monkeypatch)
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0, spec=InterpolantSpec(VOLUME, 2, 1.0))
        for long, short, want in ((1000, 20, [(32, 4, 2), (32, 4, 2)]), (100, 80, [(32, 8, 2)])):
            made.clear()
            members = [(SimConfig(grid=neumann(M=32), dt=1e-3, T=n * 1e-3, record_every=n,
                                  ic=ICSpec("random-band", seed=seed, kmax=3, amplitude=1.0)), p)
                       for seed, n in enumerate([long] * 4 + [short] * 4)]
            outcomes = integrate(members)
            assert sorted(made) == want
            for cfg, p in members:
                got, alone = outcomes[cfg, p], simulate(cfg, p)
                assert np.array_equal(got.times, alone.times)
                assert np.max(np.abs(got.l2 - alone.l2)) <= 1e-12 * np.max(alone.l2)

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
                # the norms are finite, (1e160)^4 is not
                assert err.record.l4p4[0] == np.inf
                assert abs(err.record.l2[0] - amplitude) <= 1e-12 * amplitude
                assert np.isfinite(err.record.h1x[0]) and err.record.h1[0] >= err.record.l2[0]
        assert np.array_equal(got.times, want.times) and len(got) == n_steps + 1
        for name in SERIES:
            a, b = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name

    def test_interpolant_norm_of_a_huge_finite_state_is_finite(self):
        # a closed-loop state of coefficients above 1e154 overflows the sum of
        # v^2 q, but ih_l2 is homogeneous of degree 1 and records finite;
        # gamma2 and the pairing are squared and overflow
        p = ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0,
                             spec=InterpolantSpec(VOLUME, 4, 1.0))
        records = []
        for amplitude in (1.0, 1e160):
            cfg = SimConfig(grid=neumann(M=32), dt=1e-3, T=1e-2,
                            ic=ICSpec("random-band", seed=1, kmax=3, amplitude=amplitude))
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    records.append(simulate(cfg, p))
                except BlowupError as err:
                    records.append(err.record)
        small, huge = records
        assert len(huge) == 1 and huge.gamma2[0] == np.inf
        want = 1e160 * small.ih_l2[0]
        assert abs(huge.ih_l2[0] - want) <= 1e-12 * want

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
        # the proof's ||u||^2 rate is 2 (min(mu, kappa) - alpha) with
        # kappa = nu (pi N / L)^2; the printed form keeps the paper's rate
        spec = InterpolantSpec(VOLUME, 4, 1.0)
        kappa = (np.pi * 4) ** 2
        for mu, rate in ((400.0, 2 * (kappa - 4.0)), (100.0, 2 * (100.0 - 4.0))):
            rep = check_conditions(ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=mu, spec=spec))
            assert rep.thm21_proof.satisfied and rep.thm21_printed.satisfied
            assert rep.thm21_proof.predicted_rate == pytest.approx(rate)
            assert rep.thm21_proof.details["kappa"] == pytest.approx(kappa)
            assert rep.thm21_printed.predicted_rate == pytest.approx((2 * np.pi * 4) ** 2 - 4.0)

    def test_invisible_mode_refutes_the_printed_hypothesis(self):
        # cos(2 pi x) has zero mean on both cells, so the controller never
        # sees it, and it grows at 2 (alpha - nu (2 pi)^2) > 0
        spec = InterpolantSpec(VOLUME, 2, 1.0)
        p = ClosedLoopParams(nu=1.0, alpha=64.0, L=1.0, mu=100.0, spec=spec)
        rep = check_conditions(p)
        assert rep.thm21_printed.satisfied
        assert not rep.thm21_proof.satisfied
        assert rep.thm21_proof.predicted_rate == pytest.approx(2 * (4 * np.pi ** 2 - 64.0))
        cfg = SimConfig(grid=Grid1D(1.0, 64, NEUMANN), dt=1e-4, T=0.1, record_every=100,
                        ic=ICSpec("single-mode", k=2, amplitude=1e-3), scheme="etdrk2")
        traj = simulate(cfg, p)
        grown = np.log(traj.l2[-1] ** 2 / traj.l2[0] ** 2) / 0.1
        assert grown == pytest.approx(-rep.thm21_proof.predicted_rate, rel=1e-3)


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
