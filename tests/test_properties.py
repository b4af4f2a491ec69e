"""Property tests of the grid's coefficient layout (transforms, Parseval
weights, point evaluation), of the stepper's padded transforms against the
padded grid's own transforms and its cube and L4 sum against an 8M-point
reference, of its fused step against the unfused ETD composition, of the
closed-loop control operator against the field-level interpolant maps, of
the recorder's independence from its stride, and of a batch's members
against their single runs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detctl.dynamics import (
    DENSE_MAX_ENTRIES,
    RECORD_CHUNK,
    SERIES,
    ClosedLoopParams,
    ICSpec,
    SimConfig,
    Stepper,
    integrate,
    simulate,
)
from detctl.fields import (
    NEUMANN,
    PERIODIC,
    Field,
    Grid1D,
    coeffs_of,
    inner_of_coeffs,
    l2_norm,
    l2_sq_of_coeffs,
    point_eval_matrix,
    samples_of,
)
from detctl.interpolants import (
    DELTA,
    FOURIER,
    KINDS,
    NODAL,
    VOLUME,
    InterpolantSpec,
    actuate_delta,
    control_operator,
    interpolate,
    pairing,
)

L = 1.0
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def layouts(draw):
    """A grid of either boundary condition (odd and even periodic M), random
    samples on it, and two random coefficient vectors of band at most M/4."""
    bc = draw(st.sampled_from((NEUMANN, PERIODIC)))
    grid = Grid1D(L, draw(st.integers(8, 70)), bc)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kmax = draw(st.integers(0, grid.M // 4))
    bands = []
    for _ in range(2):
        c = np.zeros(grid.w.shape, dtype=float if bc == NEUMANN else complex)
        c[: kmax + 1] = rng.uniform(-1.0, 1.0, kmax + 1)
        if bc == PERIODIC:
            c[1: kmax + 1] += 1j * rng.uniform(-1.0, 1.0, kmax)
        bands.append(c)
    return grid, rng.standard_normal(grid.M), bands


@PROPERTY
@given(layouts())
def test_transform_round_trip(case):
    grid, u, (a, _) = case
    back = samples_of(grid, coeffs_of(Field(grid, u)))
    assert np.max(np.abs(back - u)) <= 1e-12 * np.max(np.abs(u))
    back = coeffs_of(Field(grid, samples_of(grid, a)))
    assert np.max(np.abs(back - a)) <= 1e-12 * np.max(np.abs(a))


@PROPERTY
@given(layouts())
def test_parseval_weights_match_midpoint_quadrature(case):
    grid, u, (a, b) = case
    ua, ub = samples_of(grid, a), samples_of(grid, b)
    scale = L * np.max(np.abs(ua)) * np.max(np.abs(ub))
    assert abs(inner_of_coeffs(grid, a, b) - np.sum(ua * ub) * grid.dx) <= 1e-12 * scale
    assert abs(l2_sq_of_coeffs(grid, a) - np.sum(ua * ua) * grid.dx) <= 1e-12 * L * np.max(ua ** 2)
    # over the whole layout (Nyquist column included) the weights are the
    # discrete Parseval identity of the samples
    want = np.sum(u * u) * grid.dx
    assert abs(l2_sq_of_coeffs(grid, coeffs_of(Field(grid, u))) - want) <= 1e-12 * want


@PROPERTY
@given(layouts())
def test_point_evaluation_at_grid_points_gives_samples(case):
    grid, u, (a, _) = case
    E = point_eval_matrix(grid, grid.points())
    c = coeffs_of(Field(grid, u))
    assert np.max(np.abs((E @ c).real - u)) <= 1e-12 * np.max(np.abs(u))
    ua = samples_of(grid, a)
    assert np.max(np.abs((E @ a).real - ua)) <= 1e-12 * np.max(np.abs(ua))


def padded_reference(stepper, c):
    """Fine samples and truncated cube coefficients on the stepper's padded
    grid, through the full-layout ``samples_of`` and ``coeffs_of`` of that
    grid (numpy FFTs, which the transform tests in test_fields check against
    dense point-evaluation sums)."""
    fine = stepper._fine
    pad = np.zeros(fine.w.shape, dtype=c.dtype)
    pad[: c.shape[0]] = c
    w = samples_of(fine, pad)
    return w, coeffs_of(Field(fine, w ** 3))[: c.shape[0]]


@st.composite
def padded_states(draw):
    """A stepper of either boundary condition and a random state over its
    whole coefficient layout.  M falls on both sides of the dense/FFT
    crossover (Neumann M=178, periodic M=175), odd and even."""
    bc = draw(st.sampled_from((NEUMANN, PERIODIC)))
    M = draw(st.one_of(st.integers(8, 120), st.integers(190, 288),
                       st.sampled_from((175, 176, 178, 179))))
    grid = Grid1D(L, M, bc)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = rng.uniform(-1.0, 1.0, grid.w.shape)
    if bc == PERIODIC:
        c = c + 1j * rng.uniform(-1.0, 1.0, grid.w.shape)
        c[0] = c[0].real
    return Stepper(grid, ClosedLoopParams(nu=1.0, alpha=1.0, L=L), 1e-3), c


@PROPERTY
@given(padded_states())
def test_stepper_transforms_match_padded_scipy(case):
    """The stepper's padded synthesis and cube, dense matrices or band-limited
    FFTs, match the padded grid's full-layout transforms."""
    stepper, c = case
    w_ref, cubed_ref = padded_reference(stepper, c)
    w, dw = stepper.samples(c)[0], stepper._fine.dx
    assert dw == L / stepper._fine.M
    assert np.max(np.abs(w - w_ref)) <= 1e-13 * np.max(np.abs(w_ref))
    cubed, max_abs = stepper.cube(c)
    assert cubed.dtype == c.dtype and cubed.shape == c.shape
    assert np.max(np.abs(cubed - cubed_ref)) <= 1e-13 * np.max(np.abs(cubed_ref))
    assert abs(max_abs - np.max(np.abs(w_ref))) <= 1e-13 * np.max(np.abs(w_ref))


@PROPERTY
@given(padded_states())
def test_padded_cube_and_l4_match_an_8m_point_reference(case):
    # the reference grid is fixed at 8M points, so it does not trust the
    # stepper's choice of padded grid: one that aliases fails here
    stepper, c = case
    grid = stepper.grid
    ref = Grid1D(L, 8 * grid.M, grid.bc)
    pad = np.zeros(ref.w.shape, dtype=c.dtype)
    pad[: c.shape[0]] = c
    w_ref = samples_of(ref, pad)
    cubed_ref = coeffs_of(Field(ref, w_ref ** 3))[: c.shape[0]]
    l4_ref = np.sum(w_ref ** 4) * ref.dx
    cubed, _ = stepper.cube(c)
    assert np.max(np.abs(cubed - cubed_ref)) <= 1e-13 * np.max(np.abs(cubed_ref))
    w, dw = stepper.samples(c)[0], stepper._fine.dx
    assert abs(np.sum(w ** 4) * dw - l4_ref) <= 1e-13 * l4_ref


def test_even_periodic_nyquist_column_is_a_conjugate_pair_on_the_padded_grid():
    # the padded irfft takes the coarse Nyquist column as an interior column of
    # the padded grid, so it is sampled at twice its coarse-grid amplitude; the
    # dense matrices (M=64 is below the crossover) must do the same
    grid = Grid1D(L, 64, PERIODIC)
    stepper = Stepper(grid, ClosedLoopParams(nu=1.0, alpha=1.0, L=L), 1e-3)
    c = np.zeros(grid.w.shape, dtype=complex)
    c[-1] = 0.75
    w_ref, cubed_ref = padded_reference(stepper, c)
    w = stepper.samples(c)[0]
    x = stepper._fine.points()
    assert np.max(np.abs(w - 1.5 * np.cos(np.pi * grid.M * x / L))) <= 1e-13
    assert np.max(np.abs(w - w_ref)) <= 1e-13 * np.max(np.abs(w_ref))
    cubed, max_abs = stepper.cube(c)
    assert np.max(np.abs(cubed - cubed_ref)) <= 1e-13 * np.max(np.abs(cubed_ref))
    assert abs(max_abs - 1.5) <= 1e-13


def unfused_step(stepper, c):
    """ETD1 or ETDRK2 composed term by term from the ETD weights, the padded
    reference cube and the control operator, and max|u| before the step."""
    (p,) = stepper.params
    ctl = None if p.open_loop else control_operator(p.spec, stepper.grid)

    def nonlin(c):
        w, cubed = padded_reference(stepper, c)
        out = p.alpha * c - cubed
        if ctl is not None:
            out = out - p.mu * ctl.A @ (ctl.O @ c).real
        return out, np.max(np.abs(w))

    n0, max_abs = nonlin(c)
    pred = stepper.decay[0] * c + stepper.w1[0] * n0
    if stepper.scheme == "etd1":
        return pred, max_abs
    return pred + stepper.w2[0] * (nonlin(pred)[0] - n0), max_abs


# grid sizes that keep the stepper's operators dense, and past the crossover
DENSE_M = {NEUMANN: (8, 178), PERIODIC: (8, 175)}
FFT_M = {NEUMANN: (179, 288), PERIODIC: (176, 288)}


@st.composite
def stepped_states(draw, kind, scheme, dense):
    """A stepper of one controller family (or the open loop, on either
    boundary condition) on a grid on the given side of the dense/FFT
    crossover that resolves its rank, and a random state with 1/(k+1)^2 decaying columns over its
    whole layout, inside the stability limit."""
    if kind is None:
        bc = draw(st.sampled_from((NEUMANN, PERIODIC)))
    else:
        bc = PERIODIC if kind == DELTA else NEUMANN
    N = draw(st.integers(1, 4))
    lo, hi = (DENSE_M if dense else FFT_M)[bc]
    lo = max(lo, 4 * N)     # the grid resolves the rank: N <= M/4
    if kind == VOLUME:  # cell-aligned means need M a multiple of N
        M = N * draw(st.integers(-(-lo // N), hi // N))
    else:
        M = draw(st.integers(lo, hi))
    grid = Grid1D(L, M, bc)
    spec = None if kind is None else InterpolantSpec(kind, N, L)
    alpha, mu = draw(st.floats(0.5, 10.0)), draw(st.floats(0.5, 20.0))
    # mu is drawn for the open loop too, so the draw order does not depend on the kind
    p = ClosedLoopParams(nu=1.0, alpha=alpha, L=L, mu=mu if spec else 0.0, spec=spec)
    stepper = Stepper(grid, p, draw(st.sampled_from((1e-4, 1e-3))), scheme)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    decay = 1.0 / (1.0 + np.arange(grid.w.shape[0])) ** 2
    c = rng.uniform(-1.0, 1.0, grid.w.shape) * decay
    if bc == PERIODIC:
        c = c + 1j * rng.uniform(-1.0, 1.0, grid.w.shape) * decay
        c[0] = c[0].real
    return stepper, c


@pytest.mark.parametrize("dense", (True, False))
@pytest.mark.parametrize("scheme", ("etd1", "etdrk2"))
@pytest.mark.parametrize("kind", KINDS + (None,))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_fused_step_matches_unfused_composition(kind, scheme, dense, data):
    stepper, c = data.draw(stepped_states(kind, scheme, dense))
    assert (stepper._fine.M * c.view(np.float64).shape[0] <= DENSE_MAX_ENTRIES) == dense
    want, want_max = unfused_step(stepper, c)
    got, s = stepper.advance(c, stepper.samples(c))
    assert got.dtype == c.dtype and got.shape == c.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert abs(stepper.cube(c)[1] - want_max) <= 1e-13 * want_max
    # the carried samples are those of the new state
    for have, fresh in zip(s, stepper.samples(got)):
        assert np.array_equal(have, fresh)
    # the real view is the same state, and so is a batch of that one row
    x = c.view(np.float64)
    x, _ = stepper.advance(x, stepper.samples(x))
    assert np.array_equal(x, got.view(np.float64))
    row, _ = stepper.advance(c[None], stepper.samples(c[None]))
    assert np.array_equal(row, got[None])


@st.composite
def controlled_fields(draw):
    """A family, its rank and points, a grid and a band-limited field on it.

    Delta actuation points sit on grid nodes, where the single-cell source
    realizes the point actuator exactly; every other point is anywhere in
    its cell.
    """
    kind = draw(st.sampled_from(KINDS))
    N = draw(st.integers(1, 6))
    M = max(8, 4 * N * draw(st.integers(1, 4)))
    grid = Grid1D(L, M, PERIODIC if kind == DELTA else NEUMANN)
    h = L / N
    unit = st.floats(0.0, 1.0)
    obs_points = act_points = None
    if kind in (NODAL, DELTA):
        obs_points = tuple(h * (k + draw(unit)) for k in range(N))
    if kind == DELTA:
        per_cell = M // N
        act_points = tuple(grid.dx * (k * per_cell + draw(st.integers(1, per_cell - 1)))
                           for k in range(N))
    include_mean = draw(st.booleans()) if kind == FOURIER else None
    spec = InterpolantSpec(kind, N, L, obs_points=obs_points, act_points=act_points,
                           include_mean=include_mean)
    kmax = draw(st.integers(0, grid.M // 4 - 1))
    amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * kmax + 2, max_size=2 * kmax + 2))
    if grid.bc == NEUMANN:
        c = np.zeros(grid.M)
        c[: kmax + 1] = amps[: kmax + 1]
    else:
        c = np.zeros(grid.M // 2 + 1, dtype=complex)
        c[: kmax + 1] = np.array(amps[: kmax + 1]) + 1j * np.array(amps[kmax + 1:])
        c[0] = c[0].real
    return spec, Field(grid, samples_of(grid, c))


@PROPERTY
@given(controlled_fields())
def test_operator_pairing_matches_field_pairing(case):
    spec, f = case
    ctl = control_operator(spec, f.grid)
    c = coeffs_of(f)
    v = (ctl.O @ c).real
    got = inner_of_coeffs(f.grid, ctl.A @ v, c)
    scale = L * np.max(np.abs(f.values)) ** 2
    assert abs(got - pairing(f, spec)) <= 1e-12 * max(scale, 1e-300)


@PROPERTY
@given(controlled_fields())
def test_operator_norm_weight_matches_realized_interpolant(case):
    spec, f = case
    ctl = control_operator(spec, f.grid)
    v = (ctl.O @ coeffs_of(f)).real
    if spec.kind == DELTA:
        realized = actuate_delta(v, spec, f.grid)
    else:
        realized = interpolate(v, spec, f.grid)
    want = l2_norm(realized)
    assert abs(np.sqrt(ctl.q @ v ** 2) - want) <= 1e-12 * max(want, 1e-300)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 1000),
       n_steps=st.one_of(st.integers(8, 40),
                         st.integers(14 * RECORD_CHUNK + 1, 16 * RECORD_CHUNK)))
def test_state_independent_of_record_stride(kind, seed, n_steps):
    # the long inputs span more than two recorder chunks at both strides
    bc = PERIODIC if kind == DELTA else NEUMANN
    grid = Grid1D(L, 32, bc)
    p = ClosedLoopParams(nu=1.0, alpha=4.0, L=L, mu=20.0, spec=InterpolantSpec(kind, 2, L))
    ic = ICSpec("random-band", seed=seed, kmax=3, amplitude=1.0)
    dt = 1e-3
    every = simulate(SimConfig(grid, dt, n_steps * dt, ic, 1, "etdrk2"), p)
    strided = simulate(SimConfig(grid, dt, n_steps * dt, ic, 7, "etdrk2"), p)
    steps = np.rint(strided.times / dt).astype(int)
    assert steps[-1] == n_steps
    for name in SERIES:
        assert np.array_equal(getattr(every, name)[steps], getattr(strided, name)), name


@st.composite
def batches(draw, dense):
    """Members on one grid of either boundary condition, on the given side of
    the dense/FFT crossover, with mixed families (the open loop included),
    ranks, dt, alpha and gains, one scheme, one step count and one stride."""
    bc = draw(st.sampled_from((NEUMANN, PERIODIC)))
    lo, hi = (DENSE_M if dense else FFT_M)[bc]
    # M a multiple of every rank, and at least 8 kmax
    grid = Grid1D(L, 12 * draw(st.integers(max(-(-lo // 12), 2), hi // 12)), bc)
    kinds = (DELTA, None) if bc == PERIODIC else (VOLUME, NODAL, FOURIER, None)
    n_steps = draw(st.integers(4, 24))
    every = draw(st.integers(2, 5))
    scheme = draw(st.sampled_from(("etd1", "etdrk2")))
    members = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(kinds))
        spec = None if kind is None else InterpolantSpec(kind, draw(st.integers(1, 4)), L)
        nu, alpha = draw(st.sampled_from((0.5, 1.0))), draw(st.floats(0.5, 10.0))
        mu = draw(st.floats(0.5, 20.0))     # drawn for the open loop too, as above
        p = ClosedLoopParams(nu=nu, alpha=alpha, L=L, mu=mu if spec else 0.0, spec=spec)
        dt = draw(st.sampled_from((1e-4, 5e-4, 1e-3)))
        ic = ICSpec("random-band", seed=draw(st.integers(0, 1000)), kmax=3, amplitude=1.0)
        members.append((SimConfig(grid, dt, n_steps * dt, ic, every, scheme), p))
    return members


def outcomes(members):
    got = integrate(members)
    return [got[member] for member in members]


@pytest.mark.parametrize("dense", (True, False))
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_batch_members_match_single_runs(dense, data):
    members = data.draw(batches(dense))
    grid = members[0][0].grid
    padded = Stepper(grid, members[0][1], members[0][0].dt)._fine.M
    parts = 2 if grid.bc == PERIODIC else 1
    assert (padded * parts * grid.w.shape[0] <= DENSE_MAX_ENTRIES) == dense
    batch = outcomes(members)
    for (cfg, p), got in zip(members, batch):
        want = simulate(cfg, p)
        assert np.array_equal(got.times, want.times)
        for name in SERIES:
            a, b = getattr(got, name), getattr(want, name)
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name
    # a given batch is deterministic, and its records do not depend on the stride
    again = outcomes(members)
    every = outcomes([(replace(cfg, record_every=1), p) for cfg, p in members])
    steps = np.rint(batch[0].times / members[0][0].dt).astype(int)
    for got, rerun, full in zip(batch, again, every):
        for name in ("times", "energy_residual") + SERIES:
            assert np.array_equal(getattr(got, name), getattr(rerun, name)), name
        for name in SERIES:
            assert np.array_equal(getattr(full, name)[steps], getattr(got, name)), name
