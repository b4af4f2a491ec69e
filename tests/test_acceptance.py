"""Acceptance gate: every stated criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Heavy preset runs execute once via the CLI and are shared across criteria.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from detctl import analysis, verify
from detctl.cli import main
from detctl.dynamics import ClosedLoopParams, ICSpec, SimConfig, TrajectoryRecord, simulate
from detctl.fields import Grid1D
from detctl.interpolants import FOURIER, InterpolantSpec
from detctl.oracle import bh_constant

PRESETS = Path(__file__).parents[1] / "presets"


def report(num: int, desc: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def load_csv(out_dir: Path):
    return np.genfromtxt(out_dir / "trajectory.csv", delimiter=",", names=True)


def traj_from_csv(data) -> TrajectoryRecord:
    z = np.zeros_like(data["t"])
    return TrajectoryRecord(times=data["t"], l2=data["l2"], h1x=data["h1x"],
                            h1=data["h1"], l4p4=data["l4p4"], gamma2=data["gamma2"],
                            ih_l2=data["ih_l2"], energy_residual=data["energy_residual"],
                            pairing=z)


@pytest.fixture(scope="session")
def preset_run(tmp_path_factory):
    cache = {}

    def run(name: str, tag: str | None = None):
        key = tag or name
        if key not in cache:
            out = tmp_path_factory.mktemp(f"run_{key}")
            t0 = time.time()
            code = main(["simulate", str(PRESETS / f"{name}.json"), "--out-dir", str(out)])
            elapsed = time.time() - t0
            assert code == 0, f"preset {name} exited {code}"
            summary = json.loads((out / "summary.json").read_text())
            cache[key] = (out, summary, elapsed)
        return cache[key]

    return run


def test_criterion_1_interpolation_inequalities():
    t0 = time.time()
    rep = verify.interpolation_suite(seed=0)
    elapsed = time.time() - t0
    props = rep["properties"]
    needed = ("volume_defect_le_h_dphi", "nodal_defect_le_h_dphi",
              "point_gap_energy_le_h_dphi_sq", "norm_le_twice_sampled_energy")
    ok = all(props[k]["passed"] for k in needed) and elapsed < 30.0
    detail = ", ".join(f"{k.split('_')[0]} worst {props[k]['worst_ratio']:.4f}" for k in needed)
    assert report(1, f"interpolation inequalities, 200 trials/kind ({detail}; {elapsed:.1f}s)", ok)


def test_criterion_2_fourier_constant():
    c = bh_constant(InterpolantSpec(FOURIER, 4, 1.0), 20)
    ok = c <= 1.0 / np.pi
    assert report(2, f"fourier interpolant constant {c:.12f} (exact, modes 1..20) <= 1/pi", ok)


def test_criterion_3_linear_oracle():
    nu, alpha, L = 1.0, 4.0, np.pi
    p = ClosedLoopParams(nu=nu, alpha=alpha, L=L)
    g = Grid1D(L, 32)
    ok = True
    details = []
    for k in range(7):
        cfg = SimConfig(grid=g, dt=1e-4, T=1.0,
                        ic=ICSpec("single-mode", k=k, amplitude=1e-6),
                        record_every=100, scheme="etd1")
        traj = simulate(cfg, p)
        fit = analysis.fit_decay_rate(traj, 0.0)
        measured = fit.rate / 2.0  # squared-norm rate -> mode exponent
        exact = analysis.linear_growth_rate(k, p)
        if k == 2:
            ok &= abs(measured) < 1e-3
        else:
            ok &= abs(measured - exact) <= 1e-3 * abs(exact)
        details.append(f"k={k}: {measured:+.4f}")
    ok &= analysis.unstable_mode_count(p) == 2
    assert report(3, "linear growth/decay exponents (" + ", ".join(details) + "), count=2", ok)


def test_criterion_4_thm51_decay_bound(preset_run):
    out, summary, elapsed = preset_run("thm51")
    data = load_csv(out)
    traj = traj_from_csv(data)
    bound_ok = analysis.verify_decay_bound(traj, 1.0, 0.05)
    i10 = int(np.argmin(np.abs(data["t"] - 10.0)))
    at10_ok = data["l2"][i10] ** 2 <= 1.05 * np.exp(-10.0)
    ok = (bound_ok and at10_ok and summary["bound_checks"]["thm51"]["passed"]
          and elapsed < 60.0)
    assert report(4, f"thm51 bound e^-t holds; |u(10)|^2={data['l2'][i10]**2:.3e} "
                     f"<= {1.05*np.exp(-10.0):.3e} ({elapsed:.0f}s)", ok)


def test_criterion_5_thm71_decay_bound(preset_run):
    out, summary, elapsed = preset_run("thm71")
    traj = traj_from_csv(load_csv(out))
    rate = 2 * (4.5 / 4 - 1.0)
    ok = (analysis.verify_decay_bound(traj, rate, 0.05)
          and summary["bound_checks"]["thm71"]["passed"] and elapsed < 60.0)
    assert report(5, f"thm71 point-actuated bound e^(-{rate}t) holds ({elapsed:.0f}s)", ok)


def test_criterion_6_thm21_rate(preset_run):
    out, summary, _ = preset_run("thm21")
    fitted = summary["decay_fit"]["rate"]
    predicted = summary["bound_checks"]["thm21"]["predicted_rate"]
    ok = (summary["decayed"] and predicted > 0
          and fitted >= 0.95 * predicted
          and summary["bound_checks"]["thm21"]["passed"])
    assert report(6, f"thm21 volume-element rate: fitted {fitted:.1f} >= "
                     f"0.95 * {predicted:.1f}", ok)


def test_criterion_7_sweep_scaling(tmp_path_factory):
    out = tmp_path_factory.mktemp("run_sweep")
    t0 = time.time()
    code = main(["sweep", str(PRESETS / "sweep-remark21.json"), "--out-dir", str(out)])
    elapsed = time.time() - t0
    summary = json.loads((out / "summary.json").read_text())
    ratios = summary["consecutive_minimal_N_ratios"]
    ok = (code == 0 and elapsed < 600.0 and len(ratios) == 2
          and all(r is not None and 1.4 <= r <= 2.8 for r in ratios))
    assert report(7, f"minimal-N scaling ratios {ratios} in [1.4, 2.8] "
                     f"(minimal {summary['minimal_N']}; {elapsed:.0f}s)", ok)


def test_criterion_8_absorbing_bound(preset_run):
    out, summary, _ = preset_run("thm41")
    data = load_csv(out)
    absorbing = summary["absorbing"]
    r0_sq, t_half = absorbing["R0_sq"], absorbing["T_half"]
    tail = data["l2"][data["t"] >= t_half] ** 2
    ok = (abs(data["l2"][0] - 2.0 * np.sqrt(r0_sq)) < 1e-9
          and tail.size > 0 and np.max(tail) <= 1.05 * r0_sq
          and absorbing["passed"])
    assert report(8, f"absorbing ball: from |u(0)|=2R0, sup after T_half={t_half:.2f} "
                     f"is {np.max(tail):.2e} <= {1.05*r0_sq:.2f}", ok)


def test_criterion_9_h1_stabilization(preset_run):
    out, _, _ = preset_run("thm51")
    data = load_csv(out)
    i30 = int(np.argmin(np.abs(data["t"] - 30.0)))
    ratio = data["h1x"][i30] / data["h1x"][0]
    ok = ratio <= 1e-3
    assert report(9, f"H1 stabilization: |u_x(30)|/|u_x(0)| = {ratio:.3e} <= 1e-3", ok)


def test_criterion_10_energy_identity(preset_run):
    oks = []
    details = []
    for name in ("thm51", "thm71"):
        out, summary, _ = preset_run(name)
        data = load_csv(out)
        allowance = 1e-3 * max(np.max(data["h1"]) ** 2, 1.0)
        worst = np.max(data["energy_residual"])
        oks.append(worst <= allowance and summary["energy_ok"])
        details.append(f"{name}: {worst:.2e} <= {allowance:.2e}")
    ok = all(oks)
    assert report(10, "energy identity residual (" + "; ".join(details) + ")", ok)


def test_criterion_11_determinism(tmp_path_factory, preset_run):
    out_a, _, _ = preset_run("thm51")
    out_b, _, _ = preset_run("thm51", tag="thm51_repeat")
    same_csv = (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    same_json = (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    ok = same_csv and same_json
    assert report(11, f"determinism: byte-identical CSV ({same_csv}) and JSON ({same_json})", ok)
