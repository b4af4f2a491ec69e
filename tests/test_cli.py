import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from detctl import analysis, verify
from detctl.cli import (
    CSV_BLOCK_ROWS,
    CSV_COLUMNS,
    ConfigError,
    main,
    parse_simulate_config,
    parse_sweep_config,
    write_json,
    write_trajectory_csv,
)
from detctl.dynamics import TrajectoryRecord

ROOT = Path(__file__).resolve().parent.parent


def base_config(**overrides):
    doc = {
        "grid": {"L": 1.0, "M": 32, "bc": "neumann"},
        "params": {"nu": 1.0, "alpha": 4.0, "mu": 10.0},
        "control": {"kind": "fourier", "N": 2, "include_mean": True},
        "sim": {
            "dt": 1e-3,
            "T": 0.2,
            "record_every": 1,
            "scheme": "etd1",
            "ic": {"kind": "random-band", "seed": 1, "kmax": 3, "amplitude": 1.0},
        },
        "experiment": {"name": "smoke"},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestValidation:
    def test_negative_mu_names_field(self):
        doc = base_config()
        doc["params"]["mu"] = -1.0
        with pytest.raises(ConfigError, match="params.mu"):
            parse_simulate_config(doc)

    def test_unknown_key_rejected(self):
        doc = base_config()
        doc["sim"]["step_size"] = 0.1
        with pytest.raises(ConfigError, match="step_size"):
            parse_simulate_config(doc)

    def test_gain_without_control_exits_2(self, tmp_path, capsys):
        code = main(["simulate", write_config(tmp_path, base_config(control=None)),
                     "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: params: feedback gain mu=10.0 needs")

    def test_unknown_top_level_section(self):
        doc = base_config()
        doc["extra"] = {}
        with pytest.raises(ConfigError, match="extra"):
            parse_simulate_config(doc)

    def test_bad_ic_kind(self):
        doc = base_config()
        doc["sim"]["ic"] = {"kind": "plume"}
        with pytest.raises(ConfigError, match="sim.ic.kind"):
            parse_simulate_config(doc)

    def test_missing_section(self):
        doc = base_config()
        del doc["params"]
        with pytest.raises(ConfigError, match="params"):
            parse_simulate_config(doc)

    def test_empty_alphas(self):
        doc = {"sweep": {"alphas": [], "nu": 1.0, "L": 1.0,
                         "mu_rule": {"type": "proportional", "factor": 5.0},
                         "N_range": [1, 2]},
               "experiment": {"name": "s"}}
        with pytest.raises(ConfigError, match="alphas"):
            parse_sweep_config(doc)

    @pytest.mark.parametrize("alphas,i", [([4, 4], 1), ([1.0, 4, 2.0, 4.0], 3)])
    def test_repeated_alpha_exits_2(self, tmp_path, capsys, alphas, i):
        # a repeat would write its cells twice and give a spurious ratio of 1
        doc = {"sweep": {"alphas": alphas, "nu": 1.0, "L": 1.0,
                         "mu_rule": {"type": "proportional", "factor": 5.0},
                         "N_range": [1, 2]},
               "experiment": {"name": "s"}}
        code = main(["sweep", write_config(tmp_path, doc), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: sweep.alphas[{i}]: ")

    def test_bad_n_range(self):
        doc = {"sweep": {"alphas": [4.0], "nu": 1.0, "L": 1.0,
                         "mu_rule": {"type": "constant", "value": 1.0},
                         "N_range": [3, 1]},
               "experiment": {"name": "s"}}
        with pytest.raises(ConfigError, match="N_range"):
            parse_sweep_config(doc)

    def test_rank_too_large_for_a_float_names_control(self):
        doc = base_config()
        doc["control"] = {"kind": "delta", "N": 10 ** 400}
        with pytest.raises(ConfigError, match="^control: "):
            parse_simulate_config(doc)

    def test_config_error_exit_code(self, tmp_path, capsys):
        doc = base_config()
        doc["params"]["mu"] = -2.0
        code = main(["simulate", write_config(tmp_path, doc), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "params.mu" in capsys.readouterr().err

    def test_partial_final_step_exits_2(self, tmp_path, capsys):
        doc = base_config()
        doc["sim"]["dt"] = 0.003  # T = 0.2 is 66.7 steps
        code = main(["simulate", write_config(tmp_path, doc), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "sim: final time" in capsys.readouterr().err

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_negative_seed_exits_2(self, tmp_path, capsys, suite):
        # rejected before the suite runs: nothing is written
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--seed", "-1", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite 'nonsense'"):
            verify.run_suite("nonsense")

    @pytest.mark.parametrize("key", ["slack", "absorbing_margin"])
    def test_tolerance_keys_rejected(self, tmp_path, capsys, key):
        # the certified tolerances are fixed in detctl.analysis
        doc = base_config()
        doc["experiment"][key] = 0.5
        code = main(["simulate", write_config(tmp_path, doc), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: experiment: unknown keys ['{key}']")


def test_ratio_threshold_key_rejected(tmp_path, capsys):
    # the sweep's verdict threshold is fixed in detctl.analysis
    doc = load_preset("sweep-remark21")
    doc["sweep"]["ratio_threshold"] = 0.5
    code = main(["sweep", write_config(tmp_path, doc), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: sweep: unknown keys ['ratio_threshold']")


def set_key(doc, path, value):
    *parents, key = path.split(".")
    for name in parents:
        doc = doc[name]
    doc[key] = value


# configs that pass every per-key check but break a rule of the grid; the
# T, amplitude and value cases are non-finite numbers
GRID_DEPENDENT = {
    "random-band kmax above M/8": ("sim.ic", {"sim.ic.kmax": 5}),
    "single-mode k >= M": ("sim.ic", {"sim.ic": {"kind": "single-mode", "k": 32,
                                                 "amplitude": 1.0}}),
    "infinite T": ("sim.T", {"sim.T": float("inf")}),
    "NaN amplitude": ("sim.ic.amplitude", {"sim.ic": {"kind": "single-mode", "k": 2,
                                                      "amplitude": float("nan")}}),
    "infinite value": ("sim.ic.value", {"sim.ic": {"kind": "constant", "value": float("inf")}}),
    "volume on a periodic grid": ("control", {"grid.bc": "periodic", "control.kind": "volume"}),
    "delta on a Neumann grid": ("control", {"control.kind": "delta"}),
    "M not a multiple of N": ("control", {"control.kind": "volume", "control.N": 3}),
    "two delta points in one grid cell": ("control", {
        "grid.bc": "periodic",
        "control": {"kind": "delta", "N": 2, "act_points": [0.49, 0.51]}}),
    "fourier rank above M/4": ("control", {"control.N": 9}),
    "fourier rank above M": ("control", {"control.N": 40}),
    "volume rank above M/4": ("control", {"control.kind": "volume", "control.N": 16}),
    "obs_points for volume": ("control", {"control": {"kind": "volume", "N": 2,
                                                      "obs_points": [0.25, 0.75]}}),
    "act_points for nodal": ("control", {"control": {"kind": "nodal", "N": 2,
                                                     "act_points": [0.25, 0.75]}}),
    "include_mean for volume": ("control", {"control": {"kind": "volume", "N": 2,
                                                        "include_mean": True}}),
    "periodic single-mode k above M/2": ("sim.ic", {
        "grid.bc": "periodic", "control": None, "params.mu": 0.0,
        "sim.ic": {"kind": "single-mode", "k": 20, "amplitude": 1.0}}),
}


@pytest.mark.parametrize("case", GRID_DEPENDENT)
def test_grid_dependent_config_error_exits_2(tmp_path, capsys, case):
    path, changes = GRID_DEPENDENT[case]
    doc = base_config()
    for key, value in changes.items():
        set_key(doc, key, value)
    code = main(["simulate", write_config(tmp_path, doc), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def leaves(doc, prefix=""):
    for key, val in doc.items():
        if isinstance(val, dict):
            yield from leaves(val, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", val


def load_preset(name):
    return json.loads((ROOT / "presets" / f"{name}.json").read_text())


# every leaf of three presets, with a value of the wrong JSON type and with NaN
BAD_LEAVES = [(name, path, bad) for name in ("thm51", "thm71", "sweep-remark21")
              for path, val in leaves(load_preset(name))
              for bad in (1 if isinstance(val, str) else "x", float("nan"))]


@pytest.mark.parametrize("preset,path,bad", BAD_LEAVES)
def test_bad_leaf_error_starts_with_its_path_once(preset, path, bad):
    doc = load_preset(preset)
    set_key(doc, path, bad)
    parse = parse_sweep_config if "sweep" in doc else parse_simulate_config
    with pytest.raises(ConfigError) as exc:
        parse(doc)
    msg = str(exc.value)
    assert msg.startswith(f"{path}: ")
    assert f"{path}:" not in msg[len(path) + 1:]


class TestSimulateCommand:
    def test_zero_ic_writes_zero_csv(self, tmp_path, capsys):
        doc = base_config()
        doc["sim"]["ic"] = {"kind": "constant", "value": 0.0}
        out = tmp_path / "out"
        code = main(["simulate", write_config(tmp_path, doc), "--out-dir", str(out)])
        assert code == 0
        data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        assert np.all(data["l2"] == 0.0)
        assert np.all(data["energy_residual"] == 0.0)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bound_checks"]["thm51"]["passed"] is True

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--out-dir", str(a)]) == 0
        assert main(["simulate", cfg, "--out-dir", str(b)]) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_manifest_replay_reproduces_summary(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--out-dir", str(a)]) == 0
        assert main(["simulate", str(a / "manifest.json"), "--out-dir", str(b)]) == 0
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_blowup_exit_1_partial_csv(self, tmp_path, capsys):
        doc = base_config()
        # dt far beyond the explicit stability limit 0.5/(alpha+3u^2+mu)
        doc["params"] = {"nu": 1.0, "alpha": 30.0, "mu": 0.0}
        doc["control"] = None
        doc["sim"]["dt"] = 0.012
        doc["sim"]["T"] = 0.996
        doc["sim"]["ic"] = {"kind": "constant", "value": 0.05}
        out = tmp_path / "out"
        code = main(["simulate", write_config(tmp_path, doc), "--out-dir", str(out)])
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["blowup"] is not None
        data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        assert data.size >= 1

    def test_failed_energy_identity_is_reported(self, tmp_path, capsys):
        # thm41's amplitude-10 start, cut short: its fast transient is not
        # resolved by the record stride, so the identity's allowance is exceeded
        doc = base_config()
        doc["grid"]["M"] = 64
        doc["sim"] = {"dt": 1e-4, "T": 0.05, "record_every": 50, "scheme": "etdrk2",
                      "ic": {"kind": "random-band", "seed": 5, "kmax": 4, "amplitude": 10.0}}
        out = tmp_path / "out"
        code = main(["simulate", write_config(tmp_path, doc), "--out-dir", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["energy_ok"] is False
        assert code == 0 and summary["failed_checks"] == []
        line = next(ln for ln in capsys.readouterr().out.splitlines() if "energy:" in ln)
        assert line.startswith("  energy: FAIL (max residual ")
        assert f"allowance {summary['energy_allowance']:.6g})" in line

    def test_blowup_at_the_first_step_has_no_energy_residual(self, tmp_path, capsys):
        # thm51 with dt 0.01 and amplitude 3 trips the stability guard at its
        # first step, so its record is the initial state alone: no derivative
        doc = json.loads((ROOT / "presets" / "thm51.json").read_text())
        doc["sim"].update(dt=0.01, T=2.0)
        doc["sim"]["ic"]["amplitude"] = 3.0
        out = tmp_path / "out"
        code = main(["simulate", write_config(tmp_path, doc), "--out-dir", str(out)])
        assert code == 1
        data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        assert data.size == 1 and np.isnan(data["energy_residual"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["energy_residual_max"] is None and summary["energy_ok"] is None
        assert summary["blowup"]["time"] == 0.01
        assert "  energy: n/a (one record)" in capsys.readouterr().out.splitlines()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DETCTL_OUT_DIR", str(tmp_path / "envout"))
        cfg = write_config(tmp_path, base_config())
        assert main(["simulate", cfg]) == 0
        assert (tmp_path / "envout" / "summary.json").exists()

    def test_csv_roundtrip_precision(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "o"
        main(["simulate", cfg, "--out-dir", str(out)])
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,l2,h1x,h1,l4p4,gamma2,ih_l2,energy_residual"
        # 17 significant digits round-trip doubles exactly
        val = lines[1].split(",")[1]
        assert float(val) == float(format(float(val), ".17g"))


def test_trajectory_csv_bytes_match_savetxt(tmp_path):
    # more rows than one formatting block, with inf, NaN, signed zeros,
    # subnormals and extremes among the values
    rng = np.random.default_rng(4)
    data = rng.standard_normal((CSV_BLOCK_ROWS + 37, 9)) * 10.0 ** rng.integers(-300, 300, (1, 9))
    data[3, 1:4] = (np.inf, -np.inf, np.nan)
    data[5, 2:5] = (-0.0, 5e-324, np.finfo(float).max)
    data[-1, -1] = np.nan
    traj = TrajectoryRecord(*data.T)
    write_trajectory_csv(tmp_path / "t.csv", traj)
    with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        table = np.column_stack([traj.times, traj.l2, traj.h1x, traj.h1, traj.l4p4,
                                 traj.gamma2, traj.ih_l2, traj.energy_residual])
        np.savetxt(fh, table, fmt="%.17g", delimiter=",", newline="\n")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_json_is_strict_for_numpy_non_finite(tmp_path):
    def reject(name):
        raise ValueError(f"bare {name} in JSON")

    doc = {"f64": np.float64(np.inf), "f32": np.float32(np.nan), "arr": np.array([np.nan, 1.5]),
           "zero_d": np.array(-np.inf), "grid": np.array([[1, 2], [3, 4]]), "neg": -np.inf,
           "int": np.int64(3), "flag": np.bool_(True), "plain": [float("nan")]}
    write_json(tmp_path / "x.json", doc)
    got = json.loads((tmp_path / "x.json").read_text(), parse_constant=reject)
    assert got == {"f64": "inf", "f32": "nan", "arr": ["nan", 1.5], "zero_d": "-inf",
                   "grid": [[1, 2], [3, 4]], "neg": "-inf", "int": 3, "flag": True,
                   "plain": ["nan"]}


class TestSweepCommand:
    def test_single_cell_matches_direct_run(self, tmp_path):
        doc = {"sweep": {"alphas": [4.0], "nu": 1.0, "L": 1.0,
                         "mu_rule": {"type": "proportional", "factor": 5.0},
                         "N_range": [2, 2], "kind": "volume",
                         "ic": {"seed": 0, "kmax": 2, "amplitude": 1.0}},
               "experiment": {"name": "one-cell"}}
        out = tmp_path / "out"
        assert main(["sweep", write_config(tmp_path, doc), "--out-dir", str(out)]) == 0
        data = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
        cfg, p = analysis.sweep_cell_config(1.0, 4.0, 1.0, 20.0, 2, kind="volume",
                                            ic_seed=0, ic_kmax=2, ic_amplitude=1.0)
        direct = analysis.terminal_ratio(cfg, p)
        assert data["terminal_ratio"] == pytest.approx(direct, rel=1e-12)
        assert int(data["minimal_N"]) == 2


    def test_remark21_preset_matches_reference(self, tmp_path):
        # the batched sweep against the stored reference table, read only
        out = tmp_path / "out"
        assert main(["sweep", str(ROOT / "presets" / "sweep-remark21.json"),
                     "--out-dir", str(out)]) == 0
        got = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
        ref = np.loadtxt(ROOT / "bench" / "reference" / "sweep-remark21.csv",
                         delimiter=",", skiprows=1)
        assert got.shape == ref.shape
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        finite = ~np.isinf(ref)
        assert np.all(got[~finite] == ref[~finite])
        assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-12 * np.abs(ref[finite]))
        summary = json.loads((out / "summary.json").read_text())
        want = {format(alpha, "g"): None if n < 0 else int(n) for alpha, n in ref[:, [0, 5]]}
        assert summary["minimal_N"] == want


class TestVerifyCommand:
    def test_interpolation_suite_passes(self, tmp_path, capsys):
        code = main(["verify", "interpolation", "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verify_interpolation.json").read_text())
        assert report["passed"] is True
        worst = report["properties"]["volume_defect_le_h_dphi"]["worst_ratio"]
        assert worst <= 1.0

    @pytest.mark.parametrize("suite", ("energy", "oracle"))
    def test_solver_against_oracle_suites_pass(self, tmp_path, capsys, suite):
        code = main(["verify", suite, "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / f"verify_{suite}.json").read_text())
        assert report["passed"] is True


NO_SCIPY = """
import json, sys
import detctl.cli
codes = [detctl.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_commands_load_no_scipy(tmp_path):
    # a fresh process runs a Neumann and a periodic simulate and a sweep on
    # numpy alone: scipy is not imported, not even lazily by a command
    runs = []
    for name in ("thm51", "thm71"):
        doc = json.loads((ROOT / "presets" / f"{name}.json").read_text())
        doc["sim"]["T"] = 20 * doc["sim"]["dt"]
        runs.append(["simulate", write_config(tmp_path, doc, f"{name}.json"),
                     "--out-dir", str(tmp_path / name)])
    doc = json.loads((ROOT / "presets" / "sweep-remark21.json").read_text())
    doc["sweep"].update(alphas=[4.0], N_range=[1, 3])
    runs.append(["sweep", write_config(tmp_path, doc, "sweep.json"),
                 "--out-dir", str(tmp_path / "sweep")])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True)
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == []
