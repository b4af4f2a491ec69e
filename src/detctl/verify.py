"""Property suites behind `detctl verify`: seeded inequality, energy, and
solver-versus-oracle checks with machine-readable verdicts.

Each suite returns a report dict {"suite", "seed", "properties": {name: {...}},
"passed"}; ``all`` runs every suite and prefixes each property with its
suite's name.  Inequality properties assert the certified bounds, whose
constants, rates and tolerances come from :mod:`detctl.analysis`; the two
questionable composite forms of the observation-energy inequality (the stated
one and the half-constant variant) are measured and reported without being
asserted.
"""

from __future__ import annotations

import numpy as np

from . import analysis, oracle
from .analysis import certified_c
from .dynamics import ClosedLoopParams, ICSpec, SimConfig, simulate
from .fields import (
    NEUMANN,
    PERIODIC,
    Grid1D,
    coeffs_of,
    eval_field,
    h1x_norm,
    l2_norm,
    random_band,
)
from .interpolants import (
    DELTA,
    FOURIER,
    NODAL,
    VOLUME,
    InterpolantSpec,
    cell_average_matrix,
    defect,
    interpolate,
    observe,
)

_TRIAL_NS = (1, 2, 4, 8, 16)
_KMAX = 20
_M = 256


def _worst(pairs) -> float:
    """Largest lhs / rhs over the (lhs, rhs) pairs with rhs > 0, and at least 0."""
    worst = 0.0
    for lhs, rhs in pairs:
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return worst


def _prop(worst: float, trials: int, bound: float | None) -> dict:
    """A property passes when its worst ratio is at most ``bound``; without
    a bound it is measured for reference, not asserted."""
    out = {"passed": bool(bound is None or worst <= bound), "worst_ratio": float(worst),
           "trials": int(trials)}
    out.update({"asserted": False} if bound is None else {"bound": float(bound)})
    return out


def _report(suite: str, seed: int, props: dict[str, dict]) -> dict:
    return {"suite": suite, "seed": seed, "properties": props,
            "passed": all(v["passed"] for v in props.values())}


def interpolation_suite(seed: int = 0, n_trials: int = 200) -> dict:
    g = Grid1D(1.0, _M, NEUMANN)
    L = 1.0
    rng = np.random.default_rng(seed + 12345)

    def points(N):
        """One uniformly drawn point in each of the N cells."""
        h = L / N
        return tuple(k * h + rng.uniform(0.0, 1.0) * h for k in range(N))

    def certified_defect(f, spec):
        return defect(f, spec), certified_c(spec) * spec.h * h1x_norm(f)

    def point_gap(f, N):
        a, b = points(N), points(N)
        return float(np.sum((eval_field(f, a) - eval_field(f, b)) ** 2)), L / N * h1x_norm(f) ** 2

    def sampled_energy(f, N):
        h, pts = L / N, points(N)
        rhs = 2.0 * (h * float(np.sum(eval_field(f, pts) ** 2)) + h ** 2 * h1x_norm(f) ** 2)
        return l2_norm(f) ** 2, rhs

    def observation_energy(rhs):
        """||f||^2 against rhs(h, gamma^2, ||f_x||^2), with exact cell
        averages gamma (the quantity the bound is a theorem about)."""
        def pair(f, N):
            spec = InterpolantSpec(VOLUME, N, L)
            avg = cell_average_matrix(spec, g.M) @ coeffs_of(f)
            return l2_norm(f) ** 2, rhs(spec.h, float(np.sum(avg ** 2)), h1x_norm(f) ** 2)
        return pair

    def idempotence(f, N):
        """Change of the interpolant under a second observe-interpolate pass,
        relative to its size, at rank 8 of the volume and fourier families."""
        def change(spec):
            once = interpolate(observe(f, spec), spec, g)
            twice = interpolate(observe(once, spec), spec, g)
            return (float(np.max(np.abs(twice.values - once.values))),
                    max(float(np.max(np.abs(once.values))), 1e-30))
        return _worst(map(change, (InterpolantSpec(VOLUME, 8, L),
                                   InterpolantSpec(FOURIER, 8, L)))), 1.0

    # name, field seed offset, trials, asserted bound on the worst lhs / rhs
    # (None: measured for reference only), and the (lhs, rhs) of a field and
    # a rank; rows run in order, as the random points are drawn from one rng
    table = (
        ("volume_defect_le_h_dphi", 0, n_trials, 1.0,
         lambda f, N: certified_defect(f, InterpolantSpec(VOLUME, N, L))),
        ("nodal_defect_le_h_dphi", 10 ** 6, n_trials, 1.0,
         lambda f, N: certified_defect(f, InterpolantSpec(NODAL, N, L, obs_points=points(N)))),
        ("fourier_defect_le_h_dphi_over_pi", 2 * 10 ** 6, n_trials, 1.0,
         lambda f, N: certified_defect(f, InterpolantSpec(FOURIER, N, L))),
        ("point_gap_energy_le_h_dphi_sq", 3 * 10 ** 6, n_trials, 1.0, point_gap),
        ("norm_le_twice_sampled_energy", 4 * 10 ** 6, n_trials, 1.0, sampled_energy),
        # observation-energy inequality with the sharp per-cell constant
        # (h/pi)^2, and the stated composite forms
        ("norm_le_h_gamma2_plus_sharp_poincare", 5 * 10 ** 6, n_trials, 1.0,
         observation_energy(lambda h, g2, dphi_sq: h * g2 + (h / np.pi) ** 2 * dphi_sq)),
        ("reference_stated_composite_form", 5 * 10 ** 6, n_trials, None,
         observation_energy(lambda h, g2, dphi_sq: (h / (2 * np.pi)) ** 2 * (g2 + dphi_sq))),
        ("reference_half_constant_form", 5 * 10 ** 6, n_trials, None,
         observation_energy(lambda h, g2, dphi_sq: h * g2 + (h / (2 * np.pi)) ** 2 * dphi_sq)),
        ("projection_idempotence", 6 * 10 ** 6, 20, 1e-12, idempotence),
    )
    props: dict[str, dict] = {}
    for name, offset, trials, bound, pair in table:
        worst = _worst(pair(random_band(g, kmax=_KMAX, seed=seed * 1000003 + offset + t),
                            _TRIAL_NS[t % len(_TRIAL_NS)]) for t in range(trials))
        props[name] = _prop(worst, trials, bound)
    return _report("interpolation", seed, props)


def oracle_suite(seed: int = 0) -> dict:
    props: dict[str, dict] = {}

    g = Grid1D(np.pi, 32, NEUMANN)
    # name, bound on the worst relative error of the recorded L2 norm, the
    # run, and the exact L2 norm at time t
    runs = (
        ("constant_state_vs_logistic", 1e-6, ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0),
         SimConfig(grid=Grid1D(1.0, 8, NEUMANN), dt=1e-4, T=10.0,
                   ic=ICSpec("constant", value=0.1), record_every=2000, scheme="etdrk2"),
         lambda t, p: abs(oracle.logistic_constant_state(0.1, t, p))),
        ("linear_regime_vs_analytic_mode", 1e-4, ClosedLoopParams(nu=1.0, alpha=4.0, L=np.pi),
         SimConfig(grid=g, dt=1e-4, T=1.0, ic=ICSpec("single-mode", k=1, amplitude=1e-6),
                   record_every=1000, scheme="etdrk2"),
         lambda t, p: l2_norm(oracle.analytic_linear_mode(1, 1e-6, t, p, g))),
    )
    for name, bound, p, cfg, exact_l2 in runs:
        traj = simulate(cfg, p)
        exact = [exact_l2(float(t), p) for t in traj.times]
        worst = _worst((abs(l2 - e), e) for l2, e in zip(traj.l2, exact))
        props[name] = _prop(worst, len(traj), bound)

    # the fourier constant is sharp (mode N + 1 reaches N / ((N + 1) pi)), so
    # its bound carries a roundoff allowance
    for name, spec, roundoff in (
        ("volume_constant", InterpolantSpec(VOLUME, 8, 1.0), 0.0),
        ("nodal_constant", InterpolantSpec(NODAL, 8, 1.0), 0.0),
        ("fourier_constant", InterpolantSpec(FOURIER, 4, 1.0), 1e-6),
    ):
        cert = certified_c(spec) + roundoff
        ens = oracle.TrialEnsemble(seed=seed, n_trials=50, kmax=_KMAX)
        c = oracle.empirical_bh_constant(spec, ens)
        props["empirical_" + name] = _prop(c, 50, cert)

    return _report("oracle", seed, props)


def energy_suite(seed: int = 0) -> dict:
    """Short closed-loop runs of both feedback architectures: the recorded
    energy identity must close and the certified decay bounds must hold."""
    props: dict[str, dict] = {}
    # name, parameters, the theorem whose rate they certify, and the run;
    # the point-actuated loop needs the finer stride: its stiff recorded modes
    # dominate the differencing error of the identity's d/dt term
    runs = (
        ("projection_loop",
         ClosedLoopParams(nu=1.0, alpha=4.0, L=1.0, mu=10.0,
                          spec=InterpolantSpec(FOURIER, 2, 1.0)),
         "thm51",
         SimConfig(grid=Grid1D(1.0, 64, NEUMANN), dt=2e-4, T=3.0,
                   ic=ICSpec("random-band", seed=seed + 20, kmax=3, amplitude=1.0),
                   record_every=1, scheme="etdrk2")),
        ("point_loop",
         ClosedLoopParams(nu=1.0, alpha=1.0, L=1.0, mu=4.5,
                          spec=InterpolantSpec(DELTA, 4, 1.0)),
         "thm71",
         SimConfig(grid=Grid1D(1.0, 64, PERIODIC), dt=5e-5, T=3.0,
                   ic=ICSpec("random-band", seed=seed + 11, kmax=2, amplitude=1.0),
                   record_every=1, scheme="etdrk2")),
    )
    for name, p, theorem, cfg in runs:
        traj = simulate(cfg, p)
        allowance = analysis.energy_allowance(traj)
        resid = float(np.max(traj.energy_residual))
        props[f"{name}_energy_identity"] = _prop(resid, len(traj), allowance)
        rate = getattr(analysis.check_conditions(p), theorem).predicted_rate
        ok = analysis.verify_decay_bound(traj, rate, analysis.DECAY_SLACK)
        props[f"{name}_decay_bound"] = _prop(1.0 if ok else np.inf, len(traj), 1.0)
    return _report("energy", seed, props)


_SUITES = {"interpolation": interpolation_suite, "energy": energy_suite, "oracle": oracle_suite}
SUITES = (*_SUITES, "all")


def run_suite(name: str, seed: int = 0) -> dict:
    if name == "all":
        parts = [suite(seed) for suite in _SUITES.values()]
        return _report("all", seed, {f"{part['suite']}.{key}": val for part in parts
                                     for key, val in part["properties"].items()})
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name](seed)
