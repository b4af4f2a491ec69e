"""`detctl` command line: run configured simulations, controller-rank sweeps,
and verification suites, emitting reproducible CSV/JSON artifacts.

Configs are single JSON documents with sections {grid, params, control, sim,
experiment} (simulate) or {sweep, experiment} (sweep); unknown keys are
rejected with field-level paths.  Numeric output uses 17-significant-digit
formatting and LF endings so identical configs reproduce identical bytes.

Exit codes: 0 success, 1 scientific failure (a certified bound was violated
or the integration blew up), 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, analysis, verify
from .dynamics import (
    BlowupError,
    ClosedLoopParams,
    ICSpec,
    SimConfig,
    TrajectoryRecord,
    check_conditions,
    simulate,
)
from .fields import NEUMANN, PERIODIC, Grid1D
from .interpolants import KINDS, InterpolantSpec

OUT_DIR_ENV = "DETCTL_OUT_DIR"
CSV_COLUMNS = ("t", "l2", "h1x", "h1", "l4p4", "gamma2", "ih_l2", "energy_residual")
CSV_BLOCK_ROWS = 1024


class ConfigError(ValueError):
    """Configuration rejected; message carries the offending field path."""


# ---------------------------------------------------------------------------
# config parsing

def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return obj


def _check_keys(obj: dict, path: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")


def _number(obj: dict, path: str, key: str, *, positive=False, nonnegative=False,
            default=None):
    if key not in obj or obj[key] is None:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}: missing value")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {val!r}")
    if positive and not val > 0:
        raise ConfigError(f"{path}.{key}: must be positive, got {val}")
    if nonnegative and val < 0:
        raise ConfigError(f"{path}.{key}: must be nonnegative, got {val}")
    return float(val)


def _integer(obj: dict, path: str, key: str, *, minimum=None, default=None):
    if key not in obj or obj[key] is None:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}: missing value")
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {val}")
    return val


def _parse_ic(obj, path: str) -> ICSpec:
    obj = _require_mapping(obj, path)
    kind = obj.get("kind")
    try:
        if kind == "single-mode":
            _check_keys(obj, path, ("kind", "k", "amplitude"))
            return ICSpec("single-mode", k=_integer(obj, path, "k", minimum=0),
                          amplitude=_number(obj, path, "amplitude"))
        if kind == "random-band":
            _check_keys(obj, path, ("kind", "seed", "kmax", "amplitude"))
            return ICSpec("random-band", seed=_integer(obj, path, "seed", minimum=0),
                          kmax=_integer(obj, path, "kmax", minimum=0),
                          amplitude=_number(obj, path, "amplitude", positive=True))
        if kind == "constant":
            _check_keys(obj, path, ("kind", "value"))
            return ICSpec("constant", value=_number(obj, path, "value"))
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None
    raise ConfigError(f"{path}.kind: expected single-mode | random-band | constant, got {kind!r}")


def parse_simulate_config(doc: dict) -> tuple[Grid1D, ClosedLoopParams, SimConfig, dict]:
    doc = _require_mapping(doc, "config")
    _check_keys(doc, "config", ("grid", "params", "sim", "experiment"), ("control",))

    gsec = _require_mapping(doc["grid"], "grid")
    _check_keys(gsec, "grid", ("L", "M"), ("bc",))
    bc = gsec.get("bc", NEUMANN)
    if bc not in (NEUMANN, PERIODIC):
        raise ConfigError(f"grid.bc: expected 'neumann' or 'periodic', got {bc!r}")
    try:
        grid = Grid1D(_number(gsec, "grid", "L", positive=True),
                      _integer(gsec, "grid", "M", minimum=8), bc)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from None

    psec = _require_mapping(doc["params"], "params")
    _check_keys(psec, "params", ("nu", "alpha"), ("mu",))
    nu = _number(psec, "params", "nu", positive=True)
    alpha = _number(psec, "params", "alpha", positive=True)
    mu = _number(psec, "params", "mu", nonnegative=True, default=0.0)

    spec = None
    if doc.get("control") is not None:
        csec = _require_mapping(doc["control"], "control")
        _check_keys(csec, "control", ("kind", "N"),
                    ("include_mean", "obs_points", "act_points"))
        kind = csec.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"control.kind: expected one of {KINDS}, got {kind!r}")
        include_mean = csec.get("include_mean", True)
        if not isinstance(include_mean, bool):
            raise ConfigError("control.include_mean: expected a boolean")
        for key in ("obs_points", "act_points"):
            pts = csec.get(key)
            if pts is not None and not (isinstance(pts, list)
                                        and all(isinstance(x, (int, float)) for x in pts)):
                raise ConfigError(f"control.{key}: expected a list of numbers")
        try:
            spec = InterpolantSpec(
                kind, _integer(csec, "control", "N", minimum=1), grid.L,
                obs_points=tuple(csec["obs_points"]) if csec.get("obs_points") else None,
                act_points=tuple(csec["act_points"]) if csec.get("act_points") else None,
                include_mean=include_mean,
            )
        except ValueError as err:
            raise ConfigError(f"control: {err}") from None

    try:
        params = ClosedLoopParams(nu=nu, alpha=alpha, L=grid.L, mu=mu, spec=spec)
    except ValueError as err:
        raise ConfigError(f"params: {err}") from None

    ssec = _require_mapping(doc["sim"], "sim")
    _check_keys(ssec, "sim", ("dt", "T", "ic"), ("record_every", "scheme"))
    scheme = ssec.get("scheme", "etd1")
    if scheme not in ("etd1", "etdrk2"):
        raise ConfigError(f"sim.scheme: expected 'etd1' or 'etdrk2', got {scheme!r}")
    try:
        cfg = SimConfig(
            grid=grid,
            dt=_number(ssec, "sim", "dt", positive=True),
            T=_number(ssec, "sim", "T", positive=True),
            ic=_parse_ic(ssec["ic"], "sim.ic"),
            record_every=_integer(ssec, "sim", "record_every", minimum=1, default=1),
            scheme=scheme,
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"sim: {err}") from None

    esec = _require_mapping(doc["experiment"], "experiment")
    _check_keys(esec, "experiment", ("name",), ("fit_t0", "slack", "absorbing_margin"))
    name = esec.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("experiment.name: expected a nonempty string")
    experiment = {
        "name": name,
        "fit_t0": None if esec.get("fit_t0") is None
        else _number(esec, "experiment", "fit_t0", nonnegative=True),
        "slack": _number(esec, "experiment", "slack", nonnegative=True, default=0.05),
        "absorbing_margin": _number(esec, "experiment", "absorbing_margin",
                                    nonnegative=True, default=0.05),
    }
    return grid, params, cfg, experiment


def parse_sweep_config(doc: dict) -> dict:
    doc = _require_mapping(doc, "config")
    _check_keys(doc, "config", ("sweep", "experiment"))
    ssec = _require_mapping(doc["sweep"], "sweep")
    _check_keys(ssec, "sweep", ("alphas", "nu", "L", "mu_rule", "N_range"),
                ("kind", "ic", "ratio_threshold"))
    alphas = ssec.get("alphas")
    if not isinstance(alphas, list) or not alphas:
        raise ConfigError("sweep.alphas: expected a nonempty list of positive numbers")
    for i, a in enumerate(alphas):
        if isinstance(a, bool) or not isinstance(a, (int, float)) or a <= 0:
            raise ConfigError(f"sweep.alphas[{i}]: expected a positive number, got {a!r}")
    nu = _number(ssec, "sweep", "nu", positive=True)
    L = _number(ssec, "sweep", "L", positive=True)

    rule = _require_mapping(ssec["mu_rule"], "sweep.mu_rule")
    rtype = rule.get("type")
    if rtype == "proportional":
        _check_keys(rule, "sweep.mu_rule", ("type", "factor"))
        factor = _number(rule, "sweep.mu_rule", "factor", nonnegative=True)
        mu_of = lambda a: factor * a
    elif rtype == "constant":
        _check_keys(rule, "sweep.mu_rule", ("type", "value"))
        value = _number(rule, "sweep.mu_rule", "value", nonnegative=True)
        mu_of = lambda a: value
    else:
        raise ConfigError(f"sweep.mu_rule.type: expected 'proportional' or 'constant', got {rtype!r}")

    nrange = ssec.get("N_range")
    if (not isinstance(nrange, list) or len(nrange) != 2
            or not all(isinstance(n, int) and not isinstance(n, bool) for n in nrange)
            or nrange[0] < 1 or nrange[1] < nrange[0]):
        raise ConfigError("sweep.N_range: expected [lo, hi] with 1 <= lo <= hi")

    kind = ssec.get("kind", "volume")
    if kind not in ("volume", "nodal", "fourier"):
        raise ConfigError(f"sweep.kind: expected volume | nodal | fourier, got {kind!r}")

    ic = ssec.get("ic", {"seed": 0, "kmax": 2, "amplitude": 1.0})
    ic = _require_mapping(ic, "sweep.ic")
    _check_keys(ic, "sweep.ic", (), ("seed", "kmax", "amplitude"))
    ic_seed = _integer(ic, "sweep.ic", "seed", minimum=0, default=0)
    ic_kmax = _integer(ic, "sweep.ic", "kmax", minimum=0, default=2)
    ic_amplitude = _number(ic, "sweep.ic", "amplitude", positive=True, default=1.0)

    esec = _require_mapping(doc["experiment"], "experiment")
    _check_keys(esec, "experiment", ("name",), ())
    name = esec.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError("experiment.name: expected a nonempty string")

    return {
        "name": name, "alphas": [float(a) for a in alphas], "nu": nu, "L": L,
        "mu_of": mu_of, "N_range": tuple(nrange), "kind": kind,
        "ic_seed": ic_seed, "ic_kmax": ic_kmax, "ic_amplitude": ic_amplitude,
        "ratio_threshold": _number(ssec, "sweep", "ratio_threshold",
                                   positive=True, default=1e-4),
    }


# ---------------------------------------------------------------------------
# artifact writers

def _py(obj):
    """Convert numpy scalars/arrays to plain Python for stable JSON bytes."""
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path: Path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_py(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(path: Path, traj: TrajectoryRecord) -> None:
    """The record as CSV, byte for byte what ``np.savetxt`` with ``%.17g`` writes.

    Each block of ``CSV_BLOCK_ROWS`` rows is one ``%`` operation on the
    repeated row format, which bounds the text held in memory on long runs.
    """
    data = np.column_stack([traj.times, traj.l2, traj.h1x, traj.h1, traj.l4p4,
                            traj.gamma2, traj.ih_l2, traj.energy_residual])
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i in range(0, len(data), CSV_BLOCK_ROWS):
            block = data[i: i + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# summaries

def build_summary(name: str, traj: TrajectoryRecord, p: ClosedLoopParams,
                  experiment: dict, blowup: BlowupError | None = None) -> dict:
    report = check_conditions(p)
    slack = experiment["slack"]
    margin = experiment["absorbing_margin"]
    e0 = float(traj.l2[0]) ** 2 if len(traj) else 0.0

    fit_t0 = experiment["fit_t0"]
    if fit_t0 is None:
        r = report.thm51.predicted_rate if report.thm51.applies else None
        fit_t0 = 1.0 / r if (r is not None and r > 0) else 0.0
    try:
        fit = analysis.fit_decay_rate(traj, fit_t0)
        fit_out = {"rate": fit.rate, "window": list(fit.window), "residual": fit.residual}
        fitted_rate = fit.rate
    except analysis.NoFitError as err:
        fit_out = {"error": str(err)}
        fitted_rate = None

    decayed = bool(len(traj) >= 2 and traj.l2[-1] < traj.l2[0])

    checks: dict[str, dict] = {}

    def bound_check(key: str, chk, rate_gate=None):
        applicable = bool(chk.applies and chk.satisfied)
        entry = {"applies": bool(chk.applies), "hypotheses_ok": bool(chk.satisfied),
                 "predicted_rate": chk.predicted_rate, "slack": slack}
        if applicable and blowup is None:
            rate = chk.predicted_rate
            if rate_gate == "fitted":
                if rate <= 0:
                    entry["passed"] = decayed
                else:
                    entry["passed"] = bool(decayed and fitted_rate is not None
                                           and fitted_rate >= (1.0 - slack) * rate)
                entry["fitted_rate"] = fitted_rate
            else:
                entry["passed"] = bool(analysis.verify_decay_bound(traj, rate, slack))
        else:
            entry["passed"] = None if not applicable else False
        checks[key] = entry

    bound_check("thm21", report.thm21_proof, rate_gate="fitted")
    bound_check("thm51", report.thm51)
    bound_check("thm71", report.thm71)

    absorbing = {"applies": bool(report.thm41.applies and report.thm41.satisfied)}
    if absorbing["applies"]:
        r0_sq, r1_sq = analysis.absorbing_bounds(p)
        t_half = analysis.absorbing_entry_time(p, e0, margin)
        tail = np.asarray(traj.l2)[np.asarray(traj.times) >= t_half] ** 2
        sup_after = float(np.max(tail)) if tail.size else 0.0
        absorbing.update({
            "R0_sq": r0_sq, "R1_sq": r1_sq, "T_half": t_half,
            "sup_l2_sq_after_T_half": sup_after, "margin": margin,
            "passed": bool(blowup is None and sup_after <= (1.0 + margin) * r0_sq),
        })

    h1x = np.asarray(traj.h1x)
    h1_ratio = float(h1x[-1] / h1x[0]) if len(traj) >= 2 and h1x[0] > 0 else None

    resid_max = float(np.max(traj.energy_residual)) if len(traj) else 0.0
    allowance = analysis.energy_allowance(traj)

    failed = [k for k, v in checks.items() if v["passed"] is False]
    if absorbing["applies"] and not absorbing["passed"]:
        failed.append("thm41-absorbing")

    return {
        "experiment": name,
        "version": __version__,
        "condition_report": report.to_dict(),
        "decay_fit": fit_out,
        "bound_checks": checks,
        "absorbing": absorbing,
        "h1x_ratio_final": h1_ratio,
        "energy_residual_max": resid_max,
        "energy_allowance": allowance,
        "energy_ok": bool(resid_max <= allowance),
        "decayed": decayed,
        "terminal": {
            "t": float(traj.times[-1]) if len(traj) else None,
            "l2": float(traj.l2[-1]) if len(traj) else None,
            "l2_ratio": float(traj.l2[-1] / traj.l2[0]) if len(traj) and traj.l2[0] > 0 else None,
        },
        "blowup": None if blowup is None else {"time": blowup.time, "reason": blowup.reason},
        "failed_checks": failed,
    }


# ---------------------------------------------------------------------------
# commands

def _resolve_out_dir(arg: str | None) -> Path:
    out = arg or os.environ.get(OUT_DIR_ENV) or "runs"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from None


def cmd_simulate(config_path: str, out_dir: str | None) -> int:
    doc = _load_json(config_path)
    if "config" in doc:  # a manifest: replay its embedded config
        doc = _require_mapping(doc["config"], "manifest.config")
    grid, p, cfg, experiment = parse_simulate_config(doc)
    out = _resolve_out_dir(out_dir)
    started = datetime.now(timezone.utc).isoformat()

    blowup = None
    try:
        traj = simulate(cfg, p)
    except BlowupError as err:
        blowup = err
        traj = err.record

    summary = build_summary(experiment["name"], traj, p, experiment, blowup)
    write_trajectory_csv(out / "trajectory.csv", traj)
    write_json(out / "summary.json", summary)
    manifest = {
        "config": doc,
        "version": __version__,
        "seed": cfg.ic.seed,
        "timestamps": {"started": started,
                       "finished": datetime.now(timezone.utc).isoformat()},
        "condition_report": summary["condition_report"],
        "outputs": {"trajectory_csv": "trajectory.csv", "summary_json": "summary.json"},
    }
    write_json(out / "manifest.json", manifest)

    failed = bool(summary["failed_checks"]) or blowup is not None
    print(f"[simulate] {experiment['name']}: wrote {out}/trajectory.csv, summary.json, manifest.json")
    for key, chk in summary["bound_checks"].items():
        if chk["passed"] is not None:
            print(f"  {key}: {'PASS' if chk['passed'] else 'FAIL'} "
                  f"(rate {chk['predicted_rate']:.6g})")
    # reported, not gated: a record stride too coarse for a fast transient
    # (thm41's amplitude-10 start) fails the identity on a correct solution
    print(f"  energy: {'PASS' if summary['energy_ok'] else 'FAIL'} "
          f"(max residual {summary['energy_residual_max']:.6g}, "
          f"allowance {summary['energy_allowance']:.6g})")
    if blowup is not None:
        print(f"  blow-up at t={blowup.time:.6g}: {blowup.reason}", file=sys.stderr)
    return 1 if failed else 0


def cmd_sweep(config_path: str, out_dir: str | None) -> int:
    doc = _load_json(config_path)
    sw = parse_sweep_config(doc)
    out = _resolve_out_dir(out_dir)
    started = datetime.now(timezone.utc).isoformat()

    lo, hi = sw["N_range"]
    threshold = sw["ratio_threshold"]
    minimal: dict[float, int | None] = {}
    rows = []
    mus = [sw["mu_of"](alpha) for alpha in sw["alphas"]]
    scans = analysis.rank_scan(
        sw["nu"], sw["alphas"], sw["L"], mus, range(lo, hi + 1), kind=sw["kind"],
        ic_seed=sw["ic_seed"], ic_kmax=sw["ic_kmax"], ic_amplitude=sw["ic_amplitude"],
    )
    for alpha, mu, terminal in zip(sw["alphas"], mus, scans):
        minimal[alpha] = next((N for N, ratio in terminal.items() if ratio <= threshold), None)
        predicted = math.sqrt(alpha * sw["L"] ** 2 / sw["nu"]) / math.pi
        for N, ratio in terminal.items():
            rows.append((alpha, N, mu, ratio, int(ratio <= threshold),
                         -1 if minimal[alpha] is None else minimal[alpha], predicted))

    with open(out / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("alpha,N,mu,terminal_ratio,stabilized,minimal_N,predicted_N_ref\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in row) + "\n")

    ratios = []
    alphas = sw["alphas"]
    for a_prev, a_next in zip(alphas, alphas[1:]):
        n0, n1 = minimal[a_prev], minimal[a_next]
        ratios.append(None if (n0 in (None, 0) or n1 is None) else n1 / n0)

    summary = {
        "experiment": sw["name"],
        "version": __version__,
        "alphas": alphas,
        "minimal_N": {format(a, "g"): minimal[a] for a in alphas},
        "predicted_N_ref": {format(a, "g"): math.sqrt(a * sw["L"] ** 2 / sw["nu"]) / math.pi
                            for a in alphas},
        "consecutive_minimal_N_ratios": ratios,
        "ratio_threshold": threshold,
        "cells": [{"alpha": r[0], "N": r[1], "mu": r[2], "terminal_ratio": r[3],
                   "stabilized": bool(r[4])} for r in rows],
    }
    write_json(out / "summary.json", summary)
    manifest = {
        "config": doc,
        "version": __version__,
        "seed": sw["ic_seed"],
        "timestamps": {"started": started,
                       "finished": datetime.now(timezone.utc).isoformat()},
        "outputs": {"sweep_csv": "sweep.csv", "summary_json": "summary.json"},
    }
    write_json(out / "manifest.json", manifest)

    print(f"[sweep] {sw['name']}: wrote {out}/sweep.csv, summary.json, manifest.json")
    for alpha in alphas:
        print(f"  alpha={alpha:g}: minimal N = {minimal[alpha]}")
    return 0


def cmd_verify(suite: str, seed: int, out_dir: str | None) -> int:
    report = verify.run_suite(suite, seed)
    out = _resolve_out_dir(out_dir)
    write_json(out / f"verify_{suite}.json", report)
    for name, prop in report["properties"].items():
        status = "PASS" if prop["passed"] else "FAIL"
        extra = "" if prop.get("asserted", True) else " (reference only)"
        print(f"  {status} {name}: worst ratio {prop['worst_ratio']:.6g}{extra}")
    print(f"[verify] suite={suite} seed={seed}: "
          f"{'all properties hold' if report['passed'] else 'FAILURES'}")
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="detctl",
        description="Finite-rank feedback stabilization experiments for the "
                    "1D Chafee-Infante equation.",
    )
    parser.add_argument("--out-dir", dest="out_dir_global", default=None,
                        help=f"output directory (default ${OUT_DIR_ENV} or ./runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run one configured simulation")
    ps.add_argument("config", help="JSON config (or a manifest to replay)")
    ps.add_argument("--out-dir", default=None)

    pw = sub.add_parser("sweep", help="run a controller-rank sweep")
    pw.add_argument("config", help="JSON sweep config")
    pw.add_argument("--out-dir", default=None)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=verify.SUITES)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--out-dir", default=None)

    args = parser.parse_args(argv)
    out_dir = args.out_dir if args.out_dir is not None else args.out_dir_global
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config, out_dir)
        if args.command == "sweep":
            return cmd_sweep(args.config, out_dir)
        return cmd_verify(args.suite, args.seed, out_dir)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
